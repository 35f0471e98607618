package repro.baselines

import repro.model.SearchUtil
import repro.store.{Candidates, ColumnStore, IndexResult, MultiDimIndex, RangeQuery}

/** Baseline 5 (paper §7.2, Appendix A): UB-tree. Points are ordered by
  * Z-value like the Z-order index and grouped into pages; the scan iterates
  * physical positions, scanning the rest of a page whenever it reaches a
  * Z-value inside the query rectangle, and otherwise computing the next
  * Z-value inside the rectangle (BIGMIN, Tropf–Herzog) and jumping ahead to
  * the position containing it — skipping the dead stretches the Z-curve
  * makes through the box's bounding Z-range.
  */
final class UBTree(
    store: ColumnStore,
    dimOrder: Array[Int],
    pageSize: Int = 1024,
    aggDim: Int = 0
) extends MultiDimIndex {

  val name = "UB tree"

  private var z: ZLayout = _

  val buildNanos: Long = {
    val t0 = System.nanoTime()
    z = new ZLayout(store, dimOrder)
    z.data.buildPrefixSums(aggDim)
    System.nanoTime() - t0
  }

  def query(q: RangeQuery): IndexResult = {
    val t0 = System.nanoTime()
    val cands = new Candidates(z.data, q, aggDim)
    val span = z.span(q)
    val zvals = z.zvals
    var pos = span.s
    while (pos < span.e) {
      val code = zvals(pos)
      if (z.curve.inBox(code, span.qlo, span.qhi)) {
        // take the rest of the page holding this position (quantization is
        // coarse, so the scan checks the raw values of every point)
        val pageEnd = math.min(span.e, (pos / pageSize + 1) * pageSize)
        cands.add(pos, pageEnd, q.filteredMask)
        pos = pageEnd
      } else {
        val next = z.curve.bigmin(code, span.zlo, span.zhi)
        if (next < 0 || next > span.zhi) pos = span.e
        else pos = SearchUtil.lowerBoundRange(zvals, next, pos + 1, pos + 1, span.e)
      }
    }
    cands.scan(t0)
  }

  def sizeBytes: Long = z.zvals.length.toLong * 8
}
