package repro.baselines

import repro.model.{Rmi, SearchUtil}
import repro.store.{Candidates, ColumnStore, IndexResult, MultiDimIndex, RangeQuery, Sort}

/** Baseline 2 (paper §7.2): clustered single-dimensional index. Points are
  * sorted by `sortDim` (the workload's most selective dimension) and a
  * learned B-tree (RMI) over the sorted column guesses each range endpoint,
  * which an exponential search of the column corrects.
  * Queries without a filter on `sortDim` span the whole store: a full scan.
  */
final class ClusteredIndex(store: ColumnStore, val sortDim: Int, aggDim: Int = 0)
    extends MultiDimIndex {
  val name = "Clustered"

  private var dataV: ColumnStore = _
  private var rmi: Rmi = _

  val buildNanos: Long = {
    val t0 = System.nanoTime()
    dataV = store.reorder(Sort.order(store.columns(sortDim)))
    rmi = Rmi.build(dataV.columns(sortDim), leaves = math.max(64, store.numRows / 1024))
    dataV.buildPrefixSums(aggDim)
    System.nanoTime() - t0
  }

  /** The sorted store (tests). */
  def data: ColumnStore = dataV

  def query(q: RangeQuery): IndexResult = {
    val t0 = System.nanoTime()
    val cands = new Candidates(dataV, q, aggDim)
    val col = dataV.columns(sortDim)
    val s = SearchUtil.lowerBound(col, q.lo(sortDim), rmi.predict(q.lo(sortDim)))
    val e = SearchUtil.upperBound(col, q.hi(sortDim), rmi.predict(q.hi(sortDim)))
    // the sorted dimension is exact by construction; check the others
    cands.add(s, e, q.filteredMask & ~(1L << sortDim))
    cands.scan(t0)
  }

  def sizeBytes: Long = rmi.sizeBytes
}
