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

/** The brute-force reference answer. It shares no code with the indexes'
  * scan phase (`Candidates`), so a fault there cannot reach the reference.
  */
object Scan {

  /** Ground-truth COUNT/SUM by brute force — the oracle for property tests. */
  def brute(store: ColumnStore, q: RangeQuery, aggDim: Int = 0): (Long, Long) = {
    val agg = store.columns(aggDim)
    var count = 0L
    var sum = 0L
    var i = 0
    while (i < store.numRows) {
      if (q.matchesRow(store, i)) { count += 1; sum += agg(i) }
      i += 1
    }
    (count, sum)
  }
}

/** The scan phase of every index: the index adds its candidate physical
  * ranges while it traverses its layout, then `scan` answers them all, so
  * per-point scan cost is identical across indexes and differences in
  * Table 2 reflect layout quality, as in the paper (§7.2).
  *
  * Each range carries a bit mask of the dimensions its rows must still be
  * checked on (bit k for dimension k). A range with mask 0 is exact: it lies
  * inside the query box and is answered from the store's prefix sums with
  * no per-row access (§7.1). Ranges with `s >= e`, and every range of an
  * empty query, are dropped.
  */
final class Candidates(data: ColumnStore, q: RangeQuery, aggDim: Int) {
  private val empty = q.isEmpty
  private var ranges = new Array[Long](48) // (start, end, checks) triples
  private var size = 0
  private val dims = new Array[Int](q.numDims) // the kernel's decoded mask
  private var count = 0L
  private var sum = 0L

  /** Add rows `[s, e)`, to be tested per row on the dimensions in `checks`. */
  def add(s: Int, e: Int, checks: Long): Unit = if (s < e && !empty) {
    if (size + 3 > ranges.length) ranges = java.util.Arrays.copyOf(ranges, ranges.length * 2)
    ranges(size) = s; ranges(size + 1) = e; ranges(size + 2) = checks
    size += 3
  }

  /** Answer every candidate; call once. Index time runs from `t0` to this call. */
  def scan(t0: Long): IndexResult = {
    val t1 = System.nanoTime()
    var prefix: Array[Long] = null
    var scanned = 0L
    var i = 0
    while (i < size) {
      val s = ranges(i).toInt; val e = ranges(i + 1).toInt; val checks = ranges(i + 2)
      if (checks == 0L) {
        if (prefix == null) prefix = data.prefixSums(aggDim)
        count += e - s; sum += prefix(e) - prefix(s)
      } else scanRange(s, e, checks)
      scanned += e - s
      i += 3
    }
    IndexResult(count, sum, scanned, t1 - t0, System.nanoTime() - t1)
  }

  /** The scan kernel: count and sum the rows of `[s, e)` that pass `q` on
    * every dimension in `checks`, tested in ascending dimension order.
    */
  private def scanRange(s: Int, e: Int, checks: Long): Unit = {
    var nd = 0
    var m = checks
    while (m != 0L) { dims(nd) = java.lang.Long.numberOfTrailingZeros(m); nd += 1; m &= m - 1 }
    val agg = data.columns(aggDim)
    var cnt = 0L
    var acc = 0L
    var i = s
    while (i < e) {
      var ok = true
      var j = 0
      while (ok && j < nd) {
        val d = dims(j)
        val v = data(d, i)
        if (v < q.lo(d) || v > q.hi(d)) ok = false
        j += 1
      }
      if (ok) { cnt += 1; acc += agg(i) }
      i += 1
    }
    count += cnt; sum += acc
  }
}
