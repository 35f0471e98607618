package repro.core

import repro.model.Rmi
import repro.store.ColumnStore

/** Maps attribute values to fractions of the data mass (paper §5.1).
  *
  * `frac(dim, v)` must be monotone non-decreasing in `v` and lie in [0, 1];
  * `colOf` buckets a value into one of `c` columns. Because points and query
  * bounds go through the *same* monotone map, the columns intersecting a
  * query range `[lo, hi]` are exactly `[colOf(lo), colOf(hi)]`.
  *
  * Monotonicity also means a dimension's columns are fully described by
  * their boundaries (`boundaries`), which assign a value the same column
  * without evaluating the flattening.
  *
  * Serializable so the Spark layout can ship it to executors.
  */
trait Flattening extends Serializable {

  /** Monotone map from value to [0, 1]. */
  def frac(dim: Int, v: Long): Double

  /** Column of value `v` when dimension `dim` has `c` columns. A
    * one-column dimension is column 0 without evaluating the flattening.
    */
  final def colOf(dim: Int, v: Long, c: Int): Int =
    if (c == 1) 0 else Flattening.colOf(frac(dim, v), c)

  /** The columns of dimension `dim` at `c` columns, compiled: boundary `j`
    * (for `j = 1 … colOf(dim, Long.MaxValue, c)`) is the smallest value `v`
    * with `colOf(dim, v, c) >= j`, found by binary search over all `Long`
    * values. Columns that no value reaches get no boundary. Because `colOf`
    * is monotone, a value's column is the number of boundaries `<= v`.
    */
  final def boundaries(dim: Int, c: Int): Boundaries = {
    val top = colOf(dim, Long.MaxValue, c)
    new Boundaries(Array.tabulate(top) { k =>
      var lo = Long.MinValue
      var hi = Long.MaxValue // colOf(hi) > k
      while (lo < hi) {
        val mid = (lo & hi) + ((lo ^ hi) >> 1) // floor((lo + hi) / 2), no overflow
        if (colOf(dim, mid, c) > k) hi = mid else lo = mid + 1
      }
      lo
    })
  }

  /** Per-model size in bytes, for the index-size accounting. */
  def sizeBytes: Long
}

object Flattening {

  /** Column of a value whose fraction is `frac` when there are `c` columns,
    * clamped to `[0, c-1]`.
    */
  @inline def colOf(frac: Double, c: Int): Int = {
    val x = (frac * c).toInt
    if (x < 0) 0 else if (x >= c) c - 1 else x
  }
}

/** One dimension's column boundaries (`Flattening.boundaries`): `column(v)`
  * is the number of `bounds` that are `<= v`, which equals the flattening's
  * `colOf` for every `Long`. The lookup searches a copy padded with
  * `Long.MaxValue` to a power of two in a fixed number of branch-free steps,
  * then clamps to the number of boundaries (only `Long.MaxValue` itself
  * counts the padding).
  */
final class Boundaries(val bounds: Array[Long]) extends Serializable {
  private val top = bounds.length
  private val padded = {
    var p = 1
    while (p <= top) p <<= 1
    val a = java.util.Arrays.copyOf(bounds, p)
    java.util.Arrays.fill(a, top, p, Long.MaxValue)
    a
  }

  /** The column of `v`. */
  def column(v: Long): Int = {
    val b = padded
    var pos = 0
    var step = b.length >>> 1
    while (step > 0) {
      val x = b(pos + step - 1)
      // all ones when x <= v, i.e. when v < x is false (signed, overflow-safe)
      val d = v - x
      pos += step & ~((d ^ ((v ^ x) & (d ^ v))) >> 63).toInt
      step >>>= 1
    }
    math.min(pos, top)
  }
}

/** Learned flattening: one RMI-modelled empirical CDF per dimension, built
  * from a sample of the data. Skewed dimensions get non-uniform column
  * boundaries so each column holds ~equal mass (paper Fig. 6).
  */
final class CdfFlattening private (models: Array[Rmi]) extends Flattening {
  def frac(dim: Int, v: Long): Double = models(dim).cdf(v)
  def sizeBytes: Long = models.map(_.sizeBytes).sum
}

object CdfFlattening {

  private val SampleSize = 100000
  private val SampleSeed = 7L

  /** Train per-dimension CDF models on up to 100k sampled rows of `store`. */
  def train(store: ColumnStore): CdfFlattening = {
    val n = store.numRows
    val rng = new java.util.Random(SampleSeed)
    val rows =
      if (n <= SampleSize) Array.range(0, n)
      else Array.fill(SampleSize)(rng.nextInt(n))
    val models = Array.tabulate(store.numDims) { d =>
      val vals = rows.map(store(d, _))
      java.util.Arrays.sort(vals)
      Rmi.build(vals, leaves = math.max(8, vals.length / 256))
    }
    new CdfFlattening(models)
  }
}
