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

  /** Column of value `v` when dimension `dim` has `c` columns. A
    * one-column dimension is column 0 without evaluating the flattening.
    */
  final def colOf(dim: Int, v: Long, c: Int): Int =
    if (c == 1) 0 else Flattening.colOf(frac(dim, v), c)

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
