package repro.store

/** Result of a single index query, carrying the statistics the paper's
  * Table 2 reports:
  *   - `count`      matching points (the COUNT aggregate);
  *   - `sum`        SUM of the aggregation column over matching points;
  *   - `scanned`    points the index visited (`N_s`), so
  *                  `scanned/count` is the scan overhead SO;
  *   - `indexNanos` time in projection/refinement/traversal (IT);
  *   - `scanNanos`  time spent scanning (ST).
  */
final case class IndexResult(
    count: Long,
    sum: Long,
    scanned: Long,
    indexNanos: Long,
    scanNanos: Long
) {
  def totalNanos: Long = indexNanos + scanNanos
}

/** Common interface of Flood and every baseline (paper §7.2): an index is
  * built once over a `ColumnStore` and answers conjunctive range-filter
  * aggregation queries. All indexes share the same store and scan code so
  * their timings are comparable.
  */
trait MultiDimIndex {

  /** Display name used in the reproduced tables. */
  def name: String

  /** Answer `q` with a COUNT (and SUM over `aggDim`) aggregation. */
  def query(q: RangeQuery): IndexResult

  /** Index metadata size in bytes (excluding the data itself). */
  def sizeBytes: Long

  /** Wall-clock build time in nanoseconds (Table 4). */
  def buildNanos: Long
}

/** The shared scanning kernel. Every index funnels its candidate physical
  * ranges through `scanRange`, so per-point scan cost is identical across
  * indexes — differences in Table 2 then reflect layout quality, as in the
  * paper.
  */
object Scan {

  /** Scan `[s,e)` of `store`, counting and summing rows that pass the checks
    * in `checkDims` (a subset of the query's filtered dimensions — callers
    * drop dimensions already guaranteed by the index, e.g. Flood's sort
    * dimension after refinement).
    * Returns (count, sum).
    */
  def scanRange(
      store: ColumnStore,
      q: RangeQuery,
      checkDims: Array[Int],
      aggDim: Int,
      s: Int,
      e: Int
  ): (Long, Long) = {
    val agg = store.columns(aggDim)
    var count = 0L
    var sum = 0L
    if (checkDims.isEmpty) {
      var i = s
      while (i < e) { sum += agg(i); i += 1 }
      count = (e - s).toLong
    } else {
      val nd = checkDims.length
      var i = s
      while (i < e) {
        var ok = true
        var j = 0
        while (ok && j < nd) {
          val d = checkDims(j)
          val v = store(d, i)
          if (v < q.lo(d) || v > q.hi(d)) ok = false
          j += 1
        }
        if (ok) { count += 1; sum += agg(i) }
        i += 1
      }
    }
    (count, sum)
  }

  /** Ground-truth COUNT/SUM by brute force — the oracle for property tests. */
  def brute(store: ColumnStore, q: RangeQuery, aggDim: Int = 0): (Long, Long) =
    scanRange(store, q, q.filteredDims, aggDim, 0, store.numRows)
}

/** The candidate physical ranges of one query: an index adds them while it
  * traverses its layout, then `scan` reads them all with `Scan.scanRange`.
  * A range marked exact lies inside the query box, so its rows are counted
  * without filter checks.
  */
final class Candidates(data: ColumnStore, q: RangeQuery, aggDim: Int) {
  private var ranges = new Array[Int](48) // (start, end, exact) triples
  private var size = 0

  def add(s: Int, e: Int, exact: Boolean): Unit = {
    if (size + 3 > ranges.length) ranges = java.util.Arrays.copyOf(ranges, ranges.length * 2)
    ranges(size) = s; ranges(size + 1) = e; ranges(size + 2) = if (exact) 1 else 0
    size += 3
  }

  /** Scan every candidate. Index time runs from `t0` to this call. */
  def scan(t0: Long): IndexResult = {
    val t1 = System.nanoTime()
    val fd = q.filteredDims
    val none = Array.emptyIntArray
    var count = 0L; var sum = 0L; var scanned = 0L
    var i = 0
    while (i < size) {
      val s = ranges(i); val e = ranges(i + 1)
      val (cc, ss) = Scan.scanRange(data, q, if (ranges(i + 2) == 1) none else fd, aggDim, s, e)
      count += cc; sum += ss; scanned += (e - s).toLong
      i += 3
    }
    IndexResult(count, sum, scanned, t1 - t0, System.nanoTime() - t1)
  }
}
