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
    q.requireDims(store.numDims)
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
  * inside the query box and is answered from the prefix sums the index built
  * on its store (`ColumnStore.buildPrefixSums`), with no per-row access
  * (§7.1). Ranges with `s >= e`, and every range of an empty query, are
  * dropped; a range that starts where the last one ended, with the same
  * mask, extends it.
  *
  * A `Candidates` lives for one query on one thread: it borrows that
  * thread's scratch space (range list, selection vector) from construction
  * until `scan` returns, so a query allocates no scan buffers. It rejects a
  * query whose arity is not the store's before it borrows; every index
  * builds its `Candidates` before it reads the query, so this is the one
  * arity check of the query path.
  */
final class Candidates(data: ColumnStore, q: RangeQuery, aggDim: Int) {
  q.requireDims(data.numDims)
  private val empty = q.isEmpty
  private val scratch = Candidates.borrow()
  private var ranges = scratch.ranges // (start, end, checks) triples
  private var size = 0
  private var count = 0L
  private var sum = 0L

  /** Add rows `[s, e)`, to be tested per row on the dimensions in `checks`. */
  def add(s: Int, e: Int, checks: Long): Unit = if (s < e && !empty) {
    if (size > 0 && ranges(size - 2) == s && ranges(size - 1) == checks) ranges(size - 2) = e
    else {
      if (size + 3 > ranges.length) {
        ranges = java.util.Arrays.copyOf(ranges, ranges.length * 2)
        scratch.ranges = ranges
      }
      ranges(size) = s; ranges(size + 1) = e; ranges(size + 2) = checks
      size += 3
    }
  }

  /** Ranges held after merging (tests). */
  private[store] def numRanges: Int = size / 3

  /** Answer every candidate; call once. Index time runs from `t0` to this call. */
  def scan(t0: Long): IndexResult = try {
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
  } finally scratch.inUse = false

  /** The scan kernel: count and sum the rows of `[s, e)` that pass `q` on
    * every dimension in `checks`, one chunk of at most `Candidates.Chunk`
    * rows and one column at a time. The first dimension writes the ids of
    * the rows that pass into the selection vector, each further dimension
    * compacts it in place, and a last pass sums the aggregation column over
    * the rows left (MonetDB/X100's selection vectors). `select` and `refine`
    * write every row id and advance by the test's 0 or 1, so the loops carry
    * no branch on the data (Ross, TODS 2004).
    */
  private def scanRange(s: Int, e: Int, checks: Long): Unit = {
    val dims = scratch.dims
    var nd = 0
    var m = checks
    while (m != 0L) { dims(nd) = java.lang.Long.numberOfTrailingZeros(m); nd += 1; m &= m - 1 }
    val sel = scratch.sel
    val agg = data.columns(aggDim)
    var cnt = 0L
    var acc = 0L
    var c = s
    while (c < e) {
      val ce = if (e - c > Candidates.Chunk) c + Candidates.Chunk else e
      var n = select(dims(0), c, ce, sel)
      var j = 1
      while (j < nd && n > 0) { n = refine(dims(j), sel, n); j += 1 }
      var k = 0
      while (k < n) { acc += agg(sel(k)); k += 1 }
      cnt += n
      c = ce
    }
    count += cnt; sum += acc
  }

  /** Write the rows of `[s, e)` that pass dimension `d` into `sel`; return how many. */
  private def select(d: Int, s: Int, e: Int, sel: Array[Int]): Int = {
    val col = data.columns(d)
    val lo = q.lo(d)
    val width = (q.hi(d) - lo) ^ Long.MinValue
    var n = 0
    var i = s
    while (i < e) {
      sel(n) = i
      n += Candidates.passes(col(i), lo, width)
      i += 1
    }
    n
  }

  /** Keep the first `n` rows of `sel` that pass dimension `d`, in order; return how many. */
  private def refine(d: Int, sel: Array[Int], n: Int): Int = {
    val col = data.columns(d)
    val lo = q.lo(d)
    val width = (q.hi(d) - lo) ^ Long.MinValue
    var out = 0
    var k = 0
    while (k < n) {
      val r = sel(k)
      sel(out) = r
      out += Candidates.passes(col(r), lo, width)
      k += 1
    }
    out
  }
}

object Candidates {

  /** Rows the kernel filters per pass: the selection vector's length. */
  private[store] final val Chunk = 1024

  /** 1 when `v` lies in `[lo, hi]`, else 0, given `width` =
    * `(hi - lo) ^ Long.MinValue` and `lo <= hi`: `v - lo` and `hi - lo`
    * compared as unsigned numbers, so one comparison tests both bounds,
    * exactly for every `Long` value.
    */
  @inline private def passes(v: Long, lo: Long, width: Long): Int =
    if (((v - lo) ^ Long.MinValue) <= width) 1 else 0

  /** Reused buffers of one thread's scans. */
  private final class Scratch {
    var ranges = new Array[Long](48)
    val sel = new Array[Int](Chunk)
    val dims = new Array[Int](64)
    var inUse = false
  }

  private val scratch = ThreadLocal.withInitial[Scratch](() => new Scratch)

  /** This thread's scratch, or a fresh one while another `Candidates` of
    * the thread still holds it.
    */
  private def borrow(): Scratch = {
    val s = scratch.get()
    if (s.inUse) new Scratch else { s.inUse = true; s }
  }
}
