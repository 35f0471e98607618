package repro.baselines

import repro.store.{Candidates, ColumnStore, IndexResult, MultiDimIndex, RangeBoxes, RangeQuery}

/** Baseline 4 (paper §7.2, Appendix A): points ordered by Z-value, grouped
  * into pages with per-dimension min/max metadata. A query computes the
  * smallest/largest Z-value of the query rectangle, binary-searches the
  * physical range between them, and scans each page in that range whose
  * min/max box intersects the rectangle.
  *
  * @param dimOrder dimensions ordered by decreasing selectivity — the most
  *                 selective dimension's LSB lands at the Z-code's LSB
  */
final class ZOrderIndex(
    store: ColumnStore,
    dimOrder: Array[Int],
    pageSize: Int = 1024,
    aggDim: Int = 0
) extends MultiDimIndex {

  val name = "Z Order"

  private var z: ZLayout = _
  private var pages: RangeBoxes = _

  val buildNanos: Long = {
    val t0 = System.nanoTime()
    z = new ZLayout(store, dimOrder)
    z.data.buildPrefixSums(aggDim)
    val n = store.numRows
    pages = RangeBoxes.of(z.data, Array.tabulate((n + pageSize - 1) / pageSize + 1)(p => math.min(n, p * pageSize)))
    System.nanoTime() - t0
  }

  def query(q: RangeQuery): IndexResult = {
    val t0 = System.nanoTime()
    val cands = new Candidates(z.data, q, aggDim)
    val span = z.span(q)
    if (span.s < span.e) {
      var pg = span.s / pageSize
      while (pg <= (span.e - 1) / pageSize) {
        if (pages.intersects(pg, q))
          cands.add(math.max(span.s, pg * pageSize), math.min(span.e, (pg + 1) * pageSize), pages.checks(pg, q))
        pg += 1
      }
    }
    cands.scan(t0)
  }

  def sizeBytes: Long = z.zvals.length.toLong * 8 + pages.sizeBytes
}
