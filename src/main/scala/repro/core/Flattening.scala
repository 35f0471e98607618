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
  * Serializable so the Spark layout can ship it to executors.
  */
trait Flattening extends Serializable {

  /** Monotone map from value to [0, 1]. */
  def frac(dim: Int, v: Long): Double

  /** Column of value `v` when dimension `dim` has `c` columns. */
  final def colOf(dim: Int, v: Long, c: Int): Int = Flattening.colOf(frac(dim, v), c)

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

/** Learned flattening: one RMI-modelled empirical CDF per dimension, built
  * from a sample of the data. Skewed dimensions get non-uniform column
  * boundaries so each column holds ~equal mass (paper Fig. 6).
  */
final class CdfFlattening private (models: Array[Rmi]) extends Flattening {
  def frac(dim: Int, v: Long): Double = models(dim).cdf(v)
  def sizeBytes: Long = models.map(_.sizeBytes).sum
}

object CdfFlattening {

  /** Train per-dimension CDF models on up to `sampleSize` rows of `store`.
    * An empty store gets a one-value model, so every value maps to a valid
    * column.
    */
  def train(store: ColumnStore, sampleSize: Int = 100000, seed: Long = 7): CdfFlattening = {
    val n = store.numRows
    val rng = new java.util.Random(seed)
    val rows =
      if (n <= sampleSize) Array.range(0, n)
      else Array.fill(sampleSize)(rng.nextInt(n))
    val models = Array.tabulate(store.numDims) { d =>
      val vals = if (n == 0) Array(0L) else rows.map(store(d, _))
      java.util.Arrays.sort(vals)
      Rmi.build(vals, leaves = math.max(8, vals.length / 256))
    }
    new CdfFlattening(models)
  }
}

/** Non-flattened baseline: equal-width columns between each dimension's min
  * and max (the §3 basic grid; used by the Fig. 11 ablation).
  */
final class LinearFlattening private (mins: Array[Long], ranges: Array[Double]) extends Flattening {
  def frac(dim: Int, v: Long): Double = {
    val f = (v.toDouble - mins(dim).toDouble) / ranges(dim)
    if (f < 0) 0.0 else if (f > 1) 1.0 else f
  }
  def sizeBytes: Long = mins.length.toLong * 16
}

object LinearFlattening {
  def fromStore(store: ColumnStore): LinearFlattening = {
    val mins = Array.tabulate(store.numDims)(store.min)
    val ranges = Array.tabulate(store.numDims) { d =>
      math.max(1.0, store.max(d).toDouble - mins(d).toDouble + 1.0)
    }
    new LinearFlattening(mins, ranges)
  }
}
