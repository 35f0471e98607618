package repro.model

/** Recursive Model Index over a sorted array of 64-bit values (paper §5.1
  * and the clustered-index baseline of §7.2).
  *
  * Two layers: a linear root model routes a value to one of `leafCount`
  * experts; each expert is a linear spline interpolating its slice of the
  * sorted array. Expert boundaries are consecutive index ranges, and each
  * expert's spline is anchored at its endpoint values, so the overall
  * prediction is monotone non-decreasing in `v` — a property Flood's
  * flattening requires (a point and a query bound must map to consistent
  * grid columns).
  *
  * The model keeps only its parameters — each expert's start index and start
  * value, and the largest value — not the array it was trained on. The
  * root's guess is corrected to the right expert by an exponential search
  * over the expert start values. `predict` returns an approximate index; a
  * caller that owns the sorted array corrects it to an exact position with
  * `SearchUtil.lowerBound`/`upperBound`.
  */
final class Rmi private (
    leafStartIdx: Array[Int], // expert e covers sorted[leafStartIdx(e), leafStartIdx(e+1))
    leafStartVal: Array[Long], // first value of each expert's slice
    vMax: Long // last value of the sorted array
) extends Serializable {
  private val leafCount = leafStartIdx.length - 1
  private val n = leafStartIdx(leafCount)
  // Root: linear map value -> expert, fitted on (leafStartVal, expert index),
  // corrected by an exponential search over the expert start values from the
  // root's guess, so the chosen expert's value range contains v.
  // An empty model has vMin = vMax = Long.MaxValue: predict is 0 everywhere
  // and cdf is 0 below Long.MaxValue, 1 at it.
  private val vMin = leafStartVal(0)
  private val rootScale =
    if (vMax == vMin) 0.0 else leafCount.toDouble / (vMax.toDouble - vMin.toDouble)

  private def expertOf(v: Long): Int = {
    var e = ((v.toDouble - vMin.toDouble) * rootScale).toInt
    if (e < 0) e = 0
    if (e >= leafCount) e = leafCount - 1
    // the last expert whose start value is <= v; O(log) in the guess's error
    // even where many experts start at one duplicated value
    math.max(0, SearchUtil.upperBoundRange(leafStartVal, v, e, 0, leafCount) - 1)
  }

  /** Approximate index of `v` in the sorted array (monotone in `v`). */
  def predict(v: Long): Int = {
    if (v <= vMin) return 0
    if (v >= vMax) return n - 1
    val e = expertOf(v)
    val i0 = leafStartIdx(e)
    val i1 = math.min(n - 1, leafStartIdx(e + 1)) // anchor at next slice start
    val v0 = leafStartVal(e)
    val v1 = if (e + 1 < leafCount) leafStartVal(e + 1) else vMax
    val p =
      if (v1 == v0) i0
      else i0 + ((v.toDouble - v0.toDouble) / (v1.toDouble - v0.toDouble) * (i1 - i0)).toInt
    math.max(i0, math.min(i1, p))
  }

  /** Empirical CDF: fraction of values `<= v`, monotone in `v`. */
  def cdf(v: Long): Double = {
    if (v < vMin) return 0.0
    if (v >= vMax) return 1.0
    (predict(v) + 1).toDouble / n
  }

  /** Model size in bytes. */
  def sizeBytes: Long = leafStartIdx.length.toLong * 4 + leafStartVal.length.toLong * 8 + 32
}

object Rmi {

  /** Build over `sorted` (must be non-decreasing) with ~`leaves` experts. */
  def build(sorted: Array[Long], leaves: Int = 64): Rmi = {
    val n = sorted.length
    if (n == 0) return new Rmi(Array(0, 0), Array(Long.MaxValue), Long.MaxValue)
    val k = math.max(1, math.min(leaves, n))
    val starts = new Array[Int](k + 1)
    var e = 0
    while (e <= k) { starts(e) = ((e.toLong * n) / k).toInt; e += 1 }
    val startVals = Array.tabulate(k)(i => sorted(starts(i)))
    new Rmi(starts, startVals, sorted(n - 1))
  }
}
