package repro.store

/** How an index summarises a contiguous row range of its reordered store:
  * the per-dimension min/max box of the range's rows (Flood's cells, Z-order
  * pages, tree nodes). A query skips a range whose box misses it, and checks
  * the rows of a range it scans only on the dimensions whose query range
  * does not cover the box.
  *
  * An empty range has the inverted box `[Long.MaxValue, Long.MinValue]`: it
  * intersects no query and needs no checks.
  *
  * @param d         dimensions of the store
  * @param numRanges number of boxes, all empty until fitted
  */
final class RangeBoxes(val d: Int, val numRanges: Int) {
  private val mins = Array.fill(numRanges * d)(Long.MaxValue) // row-major by range
  private val maxs = Array.fill(numRanges * d)(Long.MinValue)

  /** Set range `r`'s box to that of rows `[s, e)` of `data`. */
  def fit(r: Int, data: ColumnStore, s: Int, e: Int): Unit = {
    var dim = 0
    while (dim < d) {
      val col = data.columns(dim)
      var mn = Long.MaxValue; var mx = Long.MinValue
      var i = s
      while (i < e) { val v = col(i); if (v < mn) mn = v; if (v > mx) mx = v; i += 1 }
      mins(r * d + dim) = mn; maxs(r * d + dim) = mx
      dim += 1
    }
  }

  /** Grow range `r`'s box to include range `o`'s. */
  def widen(r: Int, o: Int): Unit = {
    var dim = 0
    while (dim < d) {
      mins(r * d + dim) = math.min(mins(r * d + dim), mins(o * d + dim))
      maxs(r * d + dim) = math.max(maxs(r * d + dim), maxs(o * d + dim))
      dim += 1
    }
  }

  /** Whether range `r` can hold a row matching `q`. */
  def intersects(r: Int, q: RangeQuery): Boolean = {
    if (mins(r * d) > maxs(r * d)) return false // empty range
    val fd = q.filteredDims
    var i = 0
    while (i < fd.length) {
      val dim = fd(i)
      if (maxs(r * d + dim) < q.lo(dim) || mins(r * d + dim) > q.hi(dim)) return false
      i += 1
    }
    true
  }

  /** The filtered dimensions of `q` whose range does not cover range `r`'s
    * box, as a bit mask (bit k for dimension k): the dimensions its rows
    * must still be checked on. 0 when every row of `r` matches `q`.
    */
  def checks(r: Int, q: RangeQuery): Long = checks(r, q, q.filteredMask)

  /** `checks(r, q)` over the dimensions in `dims` alone, a subset of
    * `q.filteredMask`: those the caller does not answer some other way. No
    * box entry of any other dimension is read.
    */
  def checks(r: Int, q: RangeQuery, dims: Long): Long = {
    var m = 0L
    var rest = dims
    while (rest != 0L) {
      val dim = java.lang.Long.numberOfTrailingZeros(rest)
      if (mins(r * d + dim) < q.lo(dim) || maxs(r * d + dim) > q.hi(dim)) m |= 1L << dim
      rest &= rest - 1
    }
    m
  }

  /** Size of the boxes in bytes. */
  def sizeBytes: Long = numRanges.toLong * d * 16
}

object RangeBoxes {

  /** Boxes of the consecutive ranges `[starts(r), starts(r+1))` of `data`. */
  def of(data: ColumnStore, starts: Array[Int]): RangeBoxes = {
    val boxes = new RangeBoxes(data.numDims, starts.length - 1)
    var r = 0
    while (r < boxes.numRanges) { boxes.fit(r, data, starts(r), starts(r + 1)); r += 1 }
    boxes
  }
}
