package repro.baselines

import repro.store.{Candidates, ColumnStore, IndexResult, MultiDimIndex, RangeQuery}

/** Baseline 1 (paper §7.2): visit every point, accessing only the columns
  * present in the query filter. Its build only computes the prefix sums an
  * unfiltered query is answered from.
  */
final class FullScan(store: ColumnStore, aggDim: Int = 0) extends MultiDimIndex {
  val name = "Full Scan"
  val buildNanos: Long = {
    val t0 = System.nanoTime()
    store.buildPrefixSums(aggDim)
    System.nanoTime() - t0
  }
  val sizeBytes = 0L

  def query(q: RangeQuery): IndexResult = {
    val t0 = System.nanoTime()
    val cands = new Candidates(store, q, aggDim)
    cands.add(0, store.numRows, q.filteredMask)
    cands.scan(t0)
  }
}
