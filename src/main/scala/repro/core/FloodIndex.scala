package repro.core

import repro.model.SearchUtil
import repro.store.{Candidates, ColumnStore, IndexResult, MultiDimIndex, RangeBoxes, RangeQuery, Sort}

import java.util.concurrent.ForkJoinPool
import java.util.stream.IntStream

/** Per-query statistics, decomposed the way the paper's cost model is
  * (Eq. 1): projection visits `cellsInRect` cells, refinement narrows each
  * non-empty cell, scanning touches `scanned` points of which `exactPoints`
  * lie in exact sub-ranges (no per-point filter checks).
  */
final case class FloodStats(
    count: Long,
    sum: Long,
    scanned: Long,
    exactPoints: Long,
    cellsInRect: Long,
    nonEmptyCells: Long,
    projectionNanos: Long,
    refineNanos: Long,
    scanNanos: Long
) {
  def toIndexResult: IndexResult =
    IndexResult(count, sum, scanned, projectionNanos + refineNanos, scanNanos)
}

/** Nanoseconds of each phase of Flood's loading (paper Table 4 "Flood
  * Loading"): assigning rows to cells, sorting all rows by the sort
  * dimension, the counting sort of that order by cell (which leaves each
  * cell sorted), reordering the store, the per-cell boxes and the
  * aggregation column's prefix sums. Their sum is at most the index's
  * `buildNanos`.
  */
final case class FloodLoadNanos(
    assign: Long,
    keySort: Long,
    countingSort: Long,
    reorder: Long,
    boxes: Long,
    prefixSums: Long
)

/** Flood: the learned multi-dimensional in-memory index (paper §3–§5).
  *
  * The first `d-1` dimensions of `layout.order` form a grid whose columns are
  * spaced by `flattening` (learned CDFs in the full system); the last
  * dimension sorts points within each cell. Queries are answered by
  * projection (find intersecting cells), refinement (narrow each cell's
  * physical range on the sort dimension by binary search; the paper's
  * per-cell PLM only wins in cells far larger than any layout here builds,
  * see `repro.RefineCrossover`), and scan (the shared `Candidates` scan:
  * filter checks only on the dimensions a cell's box is not inside, exact
  * ranges answered from prefix sums — §7.1). Queries may run on
  * several threads at once: the buffers a query reuses are per thread.
  *
  * Each non-empty cell's refinement and scan are independent of every
  * other cell's. A query that meets at least `FloodIndex.ParallelMinCells`
  * non-empty cells (on tpch-scan, the ones that filter only the sort
  * dimension) cuts its list of them into `FloodIndex.Chunks` contiguous
  * chunks, which its caller and the JDK's common fork/join pool refine and
  * scan, each through its own `Candidates`; the chunks' counts, sums
  * (mod 2^64) and counters add up to the serial ones. A smaller query is
  * the one-chunk case of the same loop, run on the caller.
  * `FloodStats.refineNanos` and `scanNanos` are the sums over the chunks,
  * i.e. single-thread work as Eq. 1 prices it; only the query's wall time
  * falls.
  *
  * @param store      input data (any row order)
  * @param layout     dimension ordering + per-grid-dimension column counts
  * @param flattening monotone per-dimension value→[0,1] maps
  * @param aggDim     dimension whose SUM the queries aggregate
  */
final class FloodIndex(
    store: ColumnStore,
    val layout: Layout,
    val flattening: Flattening,
    aggDim: Int = 0
) extends MultiDimIndex {
  require(layout.d == store.numDims, "layout must cover every dimension")
  require(layout.numCells <= (1L << 22), s"cell count ${layout.numCells} too large")

  val name = "Flood"

  private val gDims = layout.gridDims
  private val gCols = layout.cols
  private val sDim = layout.sortDim
  private val strides = layout.strides
  private val numCells = layout.numCells.toInt

  private var dataV: ColumnStore = _
  private var cellStart: Array[Int] = _
  private var cellBoxes: RangeBoxes = _
  private var loadV: FloodLoadNanos = _

  // the non-empty cells of the calling thread's current query, reused; a
  // split query's chunks read them until the query returns
  private val cellBuf = ThreadLocal.withInitial[Array[Int]](() => new Array[Int](256))

  val buildNanos: Long = {
    val t0 = System.nanoTime()
    build()
    System.nanoTime() - t0
  }

  /** The reordered store (cells contiguous, sorted by sort dim within). */
  def data: ColumnStore = dataV

  /** Physical start of each cell (length numCells + 1). */
  def cellTable: Array[Int] = cellStart

  /** Nanoseconds of each loading phase of the build that made this index. */
  def loadNanos: FloodLoadNanos = loadV

  private def build(): Unit = {
    val n = store.numRows
    var t = System.nanoTime()
    def lap(): Long = { val now = System.nanoTime(); val d = now - t; t = now; d }

    // cell assignment, one grid dimension at a time through its compiled
    // column boundaries (the same columns as `flattening.colOf`)
    val cellIds = new Array[Int](n)
    var g = 0
    while (g < gDims.length) {
      if (gCols(g) > 1) {
        val b = flattening.boundaries(gDims(g), gCols(g))
        val col = store.columns(gDims(g))
        val stride = strides(g).toInt
        var i = 0
        while (i < n) { cellIds(i) += b.column(col(i)) * stride; i += 1 }
      }
      g += 1
    }
    val assignNs = lap()

    // every row in sort-key order (stable), then a stable counting sort of
    // that order by cell: each cell's rows come out sorted by key, ties in
    // row order
    val byKey = Sort.order(store.columns(sDim))
    val keySortNs = lap()
    val counts = new Array[Int](numCells + 1)
    var i = 0
    while (i < n) { counts(cellIds(i) + 1) += 1; i += 1 }
    i = 1
    while (i <= numCells) { counts(i) += counts(i - 1); i += 1 }
    cellStart = counts
    val next = java.util.Arrays.copyOf(cellStart, numCells)
    val perm = new Array[Int](n)
    i = 0
    while (i < n) {
      val row = byKey(i)
      val c = cellIds(row)
      perm(next(c)) = row
      next(c) += 1
      i += 1
    }
    val countingSortNs = lap()

    dataV = store.reorder(perm)
    val reorderNs = lap()

    // per-cell min/max (exactness checks)
    cellBoxes = RangeBoxes.of(dataV, cellStart)
    val boxesNs = lap()

    dataV.buildPrefixSums(aggDim)
    loadV = FloodLoadNanos(assignNs, keySortNs, countingSortNs, reorderNs, boxesNs, lap())
  }

  /** Answer `q`, reporting the full per-phase statistics. */
  def queryWithStats(q: RangeQuery): FloodStats = queryWithStats(q, FloodIndex.ParallelMinCells)

  /** `queryWithStats`, refining and scanning in chunks on the common pool
    * when the query meets at least `minCellsToSplit` non-empty cells
    * (`repro.ParallelCrossover` times both sides of the threshold).
    */
  private[repro] def queryWithStats(q: RangeQuery, minCellsToSplit: Int): FloodStats = {
    q.requireDims(layout.d)

    // ---- projection: the non-empty cells the query rectangle meets ----
    val t0 = System.nanoTime()
    val proj = layout.project(flattening, q)
    var cells = cellBuf.get()
    var nCells = 0
    val w = proj.walk(strides)
    while (!w.done) {
      val c = w.id.toInt
      if (cellStart(c + 1) > cellStart(c)) {
        if (nCells == cells.length) { cells = java.util.Arrays.copyOf(cells, 2 * nCells); cellBuf.set(cells) }
        cells(nCells) = c
        nCells += 1
      }
      w.next()
    }
    val t1 = System.nanoTime()

    // ---- refinement and scan, of all cells at once or of contiguous
    // chunks of them on the common pool; the totals of the chunks add up.
    // The stream's tasks are `CountedCompleter`s: the caller runs chunks
    // itself and, while it waits, only chunks of this query, so no other
    // query on its thread can overwrite its `cellBuf` ----
    val gridChecks = q.filteredMask & ~(1L << sDim)
    val chunks = if (nCells >= minCellsToSplit) math.max(1, math.min(FloodIndex.Chunks, nCells)) else 1
    val tot = new Array[Long](chunks * FloodIndex.Totals)
    if (chunks == 1) refineAndScan(q, gridChecks, cells, 0, nCells, tot, 0)
    else {
      // vals, so the lambda captures no `var` of the projection loop
      val cs = cells
      val n = nCells
      IntStream.range(0, chunks).parallel().forEach(k =>
        refineAndScan(q, gridChecks, cs, (k.toLong * n / chunks).toInt, ((k + 1).toLong * n / chunks).toInt, tot, k))
    }
    var i = FloodIndex.Totals
    while (i < tot.length) { tot(i % FloodIndex.Totals) += tot(i); i += 1 }
    FloodStats(
      count = tot(0), sum = tot(1), scanned = tot(2), exactPoints = tot(3),
      cellsInRect = proj.numCells, nonEmptyCells = nCells.toLong,
      projectionNanos = t1 - t0, refineNanos = tot(4), scanNanos = tot(5)
    )
  }

  /** Refine cells `cells(from until until)` (narrow each one's physical
    * range on the sort dimension, which then needs no per-row check), scan
    * them through one `Candidates`, and write count, sum, scanned, exact
    * points, refinement and scan nanoseconds to `tot` at slot `k`.
    * `gridChecks` holds the filtered grid dimensions, the only ones a
    * cell's box can leave unchecked.
    */
  private def refineAndScan(q: RangeQuery, gridChecks: Long, cells: Array[Int], from: Int, until: Int,
                            tot: Array[Long], k: Int): Unit = {
    val t0 = System.nanoTime()
    val cands = new Candidates(dataV, q, aggDim)
    val sortFiltered = q.filters(sDim)
    val sortCol = dataV.columns(sDim)
    var exactPts = 0L
    var i = from
    while (i < until) {
      val c = cells(i)
      var s = cellStart(c)
      var e = cellStart(c + 1)
      if (sortFiltered) {
        s = SearchUtil.binaryLowerBound(sortCol, q.lo(sDim), s, e)
        if (s < e) e = SearchUtil.binaryUpperBound(sortCol, q.hi(sDim), s, e)
      }
      if (s < e) {
        val checks = cellBoxes.checks(c, q, gridChecks)
        if (checks == 0L) exactPts += e - s
        cands.add(s, e, checks)
      }
      i += 1
    }
    val r = cands.scan(t0)
    val o = k * FloodIndex.Totals
    tot(o) = r.count; tot(o + 1) = r.sum; tot(o + 2) = r.scanned
    tot(o + 3) = exactPts; tot(o + 4) = r.indexNanos; tot(o + 5) = r.scanNanos
  }

  def query(q: RangeQuery): IndexResult = queryWithStats(q).toIndexResult

  def sizeBytes: Long =
    cellStart.length.toLong * 4 + cellBoxes.sizeBytes + flattening.sizeBytes

  /** Bytes of per-cell PLMs: always 0, since Flood refines every cell by
    * binary search and builds no per-cell model. Kept because the benchmark
    * reports it as `core.plm_bytes`.
    */
  def plmBytes: Long = 0L
}

object FloodIndex {

  /** Non-empty cells from which a query's refinement and scan are split
    * over the common pool: the crossover `repro.ParallelCrossover` measured
    * on a 4-core host, with the pool's threads parked before each query.
    * Below it the split query is not faster in nearly every trial: waking
    * the threads costs about as much as the cells' work they take over.
    */
  private[repro] final val ParallelMinCells = 2048

  /** Chunks a split query's cells are cut into: two per thread that runs
    * them (the common pool's and the caller), so a thread that starts late
    * or runs slow holds up less than half of its share; 1, so no query
    * splits, on a one-core host.
    */
  private[repro] val Chunks: Int =
    if (Runtime.getRuntime.availableProcessors == 1) 1 else 2 * (ForkJoinPool.getCommonPoolParallelism + 1)

  /** Count, sum, scanned, exact points, refinement and scan nanoseconds. */
  private[core] final val Totals = 6
}
