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
  * `predict` returns an approximate index; `lowerBound`/`upperBound` correct
  * it to exact positions with a bounded exponential search.
  */
final class Rmi private (
    sorted: Array[Long],
    leafStartIdx: Array[Int], // expert e covers sorted[leafStartIdx(e), leafStartIdx(e+1))
    leafStartVal: Array[Long] // first value of each expert's slice
) extends Serializable {
  private val n = sorted.length
  private val leafCount = leafStartIdx.length - 1
  // Root: linear map value -> expert, fitted on (leafStartVal, expert index),
  // corrected by a local walk so the chosen expert's value range contains v.
  private val vMin = sorted(0)
  private val vMax = sorted(n - 1)
  private val rootScale =
    if (vMax == vMin) 0.0 else leafCount.toDouble / (vMax.toDouble - vMin.toDouble)

  private def expertOf(v: Long): Int = {
    var e = ((v.toDouble - vMin.toDouble) * rootScale).toInt
    if (e < 0) e = 0
    if (e >= leafCount) e = leafCount - 1
    // local correction: walk to the expert whose [startVal, nextStartVal) holds v
    while (e > 0 && v < leafStartVal(e)) e -= 1
    while (e < leafCount - 1 && v >= leafStartVal(e + 1)) e += 1
    e
  }

  /** Approximate index of `v` in the sorted array (monotone in `v`). */
  def predict(v: Long): Int = {
    if (v <= vMin) return 0
    if (v >= vMax) return n - 1
    val e = expertOf(v)
    val i0 = leafStartIdx(e)
    val i1 = math.min(n - 1, leafStartIdx(e + 1)) // anchor at next slice start
    val v0 = sorted(i0)
    val v1 = sorted(i1)
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

  /** Exact index of the first value `>= v` (n if none). */
  def lowerBound(v: Long): Int = SearchUtil.lowerBound(sorted, v, predict(v))

  /** Exact index of the last value `<= v` plus one, i.e. exclusive upper bound. */
  def upperBound(v: Long): Int = SearchUtil.upperBound(sorted, v, predict(v))

  /** Model size in bytes. */
  def sizeBytes: Long = leafStartIdx.length.toLong * 4 + leafStartVal.length.toLong * 8 + 32
}

object Rmi {

  /** Build over `sorted` (must be non-decreasing) with ~`leaves` experts. */
  def build(sorted: Array[Long], leaves: Int = 64): Rmi = {
    require(sorted.nonEmpty, "empty RMI input")
    val n = sorted.length
    val k = math.max(1, math.min(leaves, n))
    val starts = new Array[Int](k + 1)
    var e = 0
    while (e <= k) { starts(e) = ((e.toLong * n) / k).toInt; e += 1 }
    val startVals = Array.tabulate(k)(i => sorted(starts(i)))
    new Rmi(sorted, starts, startVals)
  }
}
