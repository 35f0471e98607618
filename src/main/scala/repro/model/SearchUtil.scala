package repro.model

/** Exponential ("galloping") search used to rectify model predictions into
  * exact positions (paper §5.2: "corrects any misprediction through a local
  * search"). Cost is O(log error), so an accurate model makes refinement
  * nearly free.
  */
object SearchUtil {

  /** First index `i` in `[0, arr.length)` with `arr(i) >= v`, starting the
    * search at `guess`. Returns `arr.length` if no such index.
    */
  def lowerBound(arr: Array[Long], v: Long, guess: Int): Int =
    lowerBoundRange(arr, v, guess, 0, arr.length)

  /** Like `lowerBound` but restricted to the slice `[s, e)` of `arr`
    * (e.g. one cell, searched from a per-cell model's guess).
    */
  def lowerBoundRange(arr: Array[Long], v: Long, guess0: Int, s: Int, e: Int): Int = {
    if (e <= s) return s
    val guess = math.max(s, math.min(e - 1, guess0))
    var lo = s
    var hi = e
    if (arr(guess) >= v) {
      // answer <= guess: gallop left until a probe with arr < v (or hit s)
      hi = guess + 1
      var step = 1
      while (guess - step >= s && arr(guess - step) >= v) step <<= 1
      lo = math.max(s, guess - step)
    } else {
      // answer > guess: gallop right until a probe with arr >= v (or hit e)
      lo = guess + 1
      var step = 1
      while (guess + step < e && arr(guess + step) < v) step <<= 1
      lo = math.max(lo, guess + (step >> 1))
      hi = math.min(e, guess + step + 1)
    }
    // binary search in [lo, hi)
    var l = lo
    var h = hi
    while (l < h) {
      val m = (l + h) >>> 1
      if (arr(m) < v) l = m + 1 else h = m
    }
    l
  }

  /** Exclusive upper bound: first index `i` with `arr(i) > v`. */
  def upperBound(arr: Array[Long], v: Long, guess: Int): Int =
    upperBoundRange(arr, v, guess, 0, arr.length)

  /** `upperBound` restricted to the slice `[s, e)`. */
  def upperBoundRange(arr: Array[Long], v: Long, guess: Int, s: Int, e: Int): Int =
    if (v == Long.MaxValue) e
    else lowerBoundRange(arr, v + 1, guess, s, e)

  /** Plain binary lower bound on a slice: how Flood refines a cell (the
    * paper's baseline refinement, §3.2.2).
    */
  def binaryLowerBound(arr: Array[Long], v: Long, s: Int, e: Int): Int = {
    var l = s; var h = e
    while (l < h) {
      val m = (l + h) >>> 1
      if (arr(m) < v) l = m + 1 else h = m
    }
    l
  }

  /** Plain binary exclusive upper bound on a slice. */
  def binaryUpperBound(arr: Array[Long], v: Long, s: Int, e: Int): Int =
    if (v == Long.MaxValue) e else binaryLowerBound(arr, v + 1, s, e)
}
