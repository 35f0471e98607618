package repro.core

import repro.model.SearchUtil
import repro.store.{Candidates, ColumnStore, IndexResult, MultiDimIndex, RangeBoxes, RangeQuery, Sort}

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

  // the non-empty cells of the calling thread's current query, reused
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
  def queryWithStats(q: RangeQuery): FloodStats = {
    // ---- projection: the cells the query rectangle meets ----
    val t0 = System.nanoTime()
    val cands = new Candidates(dataV, q, aggDim)
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

    // ---- refinement: narrow each cell's physical range on the sort dim;
    // the refined sort dim needs no per-row check ----
    val sortFiltered = q.filters(sDim)
    val sortCol = dataV.columns(sDim)
    val unsorted = ~(1L << sDim)
    var exactPts = 0L
    var i = 0
    while (i < nCells) {
      val c = cells(i)
      var s = cellStart(c)
      var e = cellStart(c + 1)
      if (sortFiltered) {
        s = SearchUtil.binaryLowerBound(sortCol, q.lo(sDim), s, e)
        if (s < e) e = SearchUtil.binaryUpperBound(sortCol, q.hi(sDim), s, e)
      }
      if (s < e) {
        val checks = cellBoxes.checks(c, q) & unsorted
        if (checks == 0L) exactPts += e - s
        cands.add(s, e, checks)
      }
      i += 1
    }

    // ---- scan ----
    val r = cands.scan(t1)
    FloodStats(
      count = r.count, sum = r.sum, scanned = r.scanned, exactPoints = exactPts,
      cellsInRect = proj.numCells, nonEmptyCells = nCells.toLong,
      projectionNanos = t1 - t0, refineNanos = r.indexNanos, scanNanos = r.scanNanos
    )
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
