package repro.store

/** Mixed-radix addressing of a grid with `counts(k)` intervals along axis
  * `k`: coordinates map to `id = Σ coord(k) * strides(k)`, the first axis
  * most significant (the paper's depth-first cell order). Flood's cells and
  * the Grid File's blocks are both addressed this way.
  */
object Grid {

  def strides(counts: Array[Int]): Array[Long] = {
    val s = new Array[Long](counts.length)
    var acc = 1L
    var k = counts.length - 1
    while (k >= 0) { s(k) = acc; acc *= counts(k); k -= 1 }
    s
  }

  /** A walk that visits nothing. */
  def emptyWalk: Walk = new Walk(Array(1L), Array(1), Array(0))

  /** A walk over the inclusive coordinate box `[lo(k), hi(k)]` in ascending
    * id order: `while (!w.done) { use(w.id); w.next() }`. A box with
    * `lo(k) > hi(k)` on some axis is empty; a box with no axes is id 0.
    */
  final class Walk(strides: Array[Long], lo: Array[Int], hi: Array[Int]) {
    private val coords = lo.clone()
    var id = 0L
    var done = false
    for (k <- lo.indices) { id += lo(k) * strides(k); done ||= lo(k) > hi(k) }

    def coord(k: Int): Int = coords(k)

    /** Step to the next coordinates (odometer: the last axis fastest). */
    def next(): Unit = {
      var k = coords.length - 1
      while (k >= 0 && coords(k) == hi(k)) {
        id -= (hi(k) - lo(k)) * strides(k)
        coords(k) = lo(k)
        k -= 1
      }
      if (k < 0) done = true
      else { coords(k) += 1; id += strides(k) }
    }
  }
}
