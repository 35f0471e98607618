package repro.store

/** How every index sorts rows into its layout: a stable sort of row ids by a
  * `Long` key, on primitive arrays (no boxed `Integer` comparator).
  *
  * The keys of the rows being sorted are gathered next to the row ids, so the
  * merge passes read both sequentially. Runs of `Run` rows are sorted by
  * insertion, then merged bottom-up. Rows with equal keys keep their order,
  * so a layout is a function of the input order alone.
  */
object Sort {

  private final val Run = 16

  /** Row ids `0 until key.length` ordered by `key(row)`, ties by row id. */
  def order(key: Array[Long]): Array[Int] = {
    val rows = Array.range(0, key.length)
    byKey(rows, key, 0, rows.length)
    rows
  }

  /** Stably sort `rows(from until until)` by `key(row)`. */
  def byKey(rows: Array[Int], key: Array[Long], from: Int, until: Int): Unit = {
    val n = until - from
    if (n < 2) return
    var k = new Array[Long](n)
    var r = java.util.Arrays.copyOfRange(rows, from, until)
    var i = 0
    while (i < n) { k(i) = key(r(i)); i += 1 }
    i = 0
    while (i < n) { insertion(k, r, i, math.min(n, i + Run)); i += Run }
    if (n > Run) {
      var kOut = new Array[Long](n)
      var rOut = new Array[Int](n)
      var width = Run
      while (width < n) {
        var lo = 0
        while (lo < n) {
          merge(k, r, kOut, rOut, lo, math.min(n, lo + width), math.min(n, lo + 2 * width))
          lo += 2 * width
        }
        val tk = k; k = kOut; kOut = tk
        val tr = r; r = rOut; rOut = tr
        width *= 2
      }
    }
    System.arraycopy(r, 0, rows, from, n)
  }

  private def insertion(k: Array[Long], r: Array[Int], s: Int, e: Int): Unit = {
    var i = s + 1
    while (i < e) {
      val kv = k(i); val rv = r(i)
      var j = i - 1
      while (j >= s && k(j) > kv) { k(j + 1) = k(j); r(j + 1) = r(j); j -= 1 }
      k(j + 1) = kv; r(j + 1) = rv
      i += 1
    }
  }

  /** Merge sorted `[lo, mid)` and `[mid, hi)` of `k`/`r` into `kOut`/`rOut`,
    * taking from the left run on ties (stability).
    */
  private def merge(k: Array[Long], r: Array[Int], kOut: Array[Long], rOut: Array[Int],
                    lo: Int, mid: Int, hi: Int): Unit = {
    var i = lo; var j = mid; var o = lo
    while (i < mid && j < hi) {
      if (k(j) < k(i)) { kOut(o) = k(j); rOut(o) = r(j); j += 1 }
      else { kOut(o) = k(i); rOut(o) = r(i); i += 1 }
      o += 1
    }
    System.arraycopy(k, i, kOut, o, mid - i); System.arraycopy(r, i, rOut, o, mid - i)
    o += mid - i
    System.arraycopy(k, j, kOut, o, hi - j); System.arraycopy(r, j, rOut, o, hi - j)
  }
}
