package repro.model

import scala.collection.mutable.ArrayBuffer

/** Piecewise Linear Model of a CDF (paper §5.2).
  *
  * Models `D(v)` — the index of the first occurrence of `v` in a sorted
  * list — with greedy linear segments that are *lower bounds* on the true
  * index (`P(v) <= D(v)` for every value present) and whose average absolute
  * error per slice is at most `delta`. The greedy pass keeps, for the current
  * slice anchored at `(v0, i0)`, the minimum slope over its points; that
  * minimum keeps the segment below every point of the slice. When the
  * average error exceeds `delta`, a new slice starts. The slice's error sum
  * under a slope `m` is `ΣD - cnt·i0 - m·Σ(v - v0)`, so running sums make the
  * build one pass, O(1) per distinct key.
  *
  * Lookup finds the segment by binary search over slice start values (the
  * paper's cache-optimized B-tree; a flat sorted array here) and evaluates
  * the segment. Predictions are clamped to the slice's index range, so the
  * model is monotone and the subsequent exponential-search rectification is
  * O(log error).
  */
final class Plm private (
    startVal: Array[Long],   // first value of each slice
    startIdx: Array[Int],    // D(startVal) of each slice
    slope: Array[Double],    // slope of each slice's segment
    val n: Int               // number of modeled entries
) {
  /** Number of linear segments. */
  def numSegments: Int = startVal.length

  /** Predicted index of `v` (a lower bound for values present in the list). */
  def predict(v: Long): Int = {
    if (n == 0) return 0
    // binary search: last slice with startVal <= v
    var l = 0
    var h = startVal.length - 1
    if (v < startVal(0)) return 0
    while (l < h) {
      val m = (l + h + 1) >>> 1
      if (startVal(m) <= v) l = m else h = m - 1
    }
    val p = startIdx(l) + (slope(l) * (v.toDouble - startVal(l).toDouble)).toInt
    val hiIdx = if (l + 1 < startIdx.length) startIdx(l + 1) else n - 1
    math.max(startIdx(l), math.min(hiIdx, math.min(n - 1, p)))
  }

  /** Model size in bytes. */
  def sizeBytes: Long = startVal.length.toLong * (8 + 4 + 8)

  /** First value of each slice, ascending (for the per-slice error checks). */
  private[model] def sliceStarts: Array[Long] = startVal.clone()
}

object Plm {

  /** Build over a non-decreasing slice `values[s, e)` with average-error
    * budget `delta`. Indices in the model are relative to `s`.
    */
  def build(values: Array[Long], s: Int, e: Int, delta: Double): Plm = {
    val n = e - s
    if (n <= 0) return new Plm(Array(0L), Array(0), Array(0.0), 0)
    val sv = new ArrayBuffer[Long]()
    val si = new ArrayBuffer[Int]()
    val sl = new ArrayBuffer[Double]()

    // current slice: anchor (v0, i0) and running sums over its distinct
    // values after the anchor (first-occurrence index, offset from v0)
    var v0 = values(s)
    var i0 = 0
    var minSlope = Double.MaxValue
    var cnt = 0
    var sumI = 0L
    var sumDv = 0.0

    def flush(): Unit = {
      val sp = if (minSlope == Double.MaxValue) 0.0 else minSlope
      sv += v0; si += i0; sl += sp
    }

    var i = s + 1
    var prevV = values(s)
    while (i < e) {
      val v = values(i)
      if (v != prevV) {
        val d = i - s // first occurrence index of v, relative to s
        val dv = v.toDouble - v0.toDouble
        val newMin = math.min(minSlope, (d - i0).toDouble / dv)
        // average error over anchor + accumulated points + candidate under
        // the tentative slope
        val errSum = (sumI + d - (cnt + 1).toLong * i0).toDouble - newMin * (sumDv + dv)
        if (errSum / (cnt + 2) > delta) {
          flush()
          v0 = v; i0 = d
          minSlope = Double.MaxValue
          cnt = 0; sumI = 0L; sumDv = 0.0
        } else {
          minSlope = newMin
          cnt += 1; sumI += d; sumDv += dv
        }
        prevV = v
      }
      i += 1
    }
    flush()
    new Plm(sv.toArray, si.toArray, sl.toArray, n)
  }
}
