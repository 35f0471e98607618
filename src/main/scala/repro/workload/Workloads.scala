package repro.workload

import repro.store.{ColumnStore, RangeQuery}

import scala.util.Random

/** Query-workload synthesis (paper §7.3): each dataset gets a small set of
  * *query types* — templates naming the filtered dimensions, range vs
  * equality — and queries are instances of a type anchored at random data
  * points, with range widths calibrated so the average selectivity is
  * ~`targetSel` (the paper uses 0.1%). Train and test workloads come from
  * the same distribution.
  */
object Workloads {

  /** A filter template: which dimensions get range filters and which get
    * equality filters.
    */
  final case class QueryTemplate(rangeDims: Seq[Int], eqDims: Seq[Int] = Seq.empty) {
    def dims: Seq[Int] = rangeDims ++ eqDims
  }

  /** Train/test query sets drawn from the same distribution. */
  final case class Workload(train: Array[RangeQuery], test: Array[RangeQuery]) {
    def all: Array[RangeQuery] = train ++ test
  }

  /** The per-dataset query-type templates (dimension indexes follow
    * `Datasets.load` column order; see paper §7.3 for the filters each
    * dataset's workload uses).
    */
  def templates(name: String): Seq[QueryTemplate] = name match {
    case "sales" => // order_id, customer_id, product_id, quantity, price_cents, sale_day
      // analyst reports center on customers: one selective dimension
      // dominates the workload, which is what makes the clustered index the
      // strong runner-up on the paper's sales dataset (§7.4)
      Seq(
        QueryTemplate(Seq(1)),
        QueryTemplate(Seq(1, 5)),
        QueryTemplate(Seq(1, 2)),
        QueryTemplate(Seq(4, 3)),
        QueryTemplate(Seq(5))
      )
    case "tpch" => // orderkey, partkey, suppkey, quantity, discount, shipdate, receiptdate
      Seq(
        QueryTemplate(Seq(5, 4, 3)), // TPC-H Q6 shape: shipdate, discount, quantity
        QueryTemplate(Seq(5)),
        QueryTemplate(Seq(6, 5)),
        QueryTemplate(Seq(0)),
        QueryTemplate(Seq(2, 5)),
        QueryTemplate(Seq(3, 4))
      )
    case "osm" => // osm_id, ts, lat, lon, rec_type, category
      Seq(
        QueryTemplate(Seq(1)),
        QueryTemplate(Seq(2, 3)),
        QueryTemplate(Seq(2, 3, 1)),
        QueryTemplate(Seq(1), eqDims = Seq(4)),
        QueryTemplate(Seq(2, 3), eqDims = Seq(5))
      )
    case "perfmon" => // log_ts, machine, cpu, mem_mb, swap_mb, loadavg
      Seq(
        QueryTemplate(Seq(0)),
        QueryTemplate(Seq(0), eqDims = Seq(1)),
        QueryTemplate(Seq(2, 3)),
        QueryTemplate(Seq(0, 2)),
        QueryTemplate(Seq(5)),
        QueryTemplate(Seq(4, 0))
      )
    case other => throw new IllegalArgumentException(s"no templates for $other")
  }

  /** Sorted copies of every column (rank lookups for query generation). */
  def sortedColumns(store: ColumnStore): Array[Array[Long]] =
    store.columns.map { c => val s = c.clone(); java.util.Arrays.sort(s); s }

  private def rankOf(sorted: Array[Long], v: Long): Int = {
    var lo = 0; var hi = sorted.length
    while (lo < hi) {
      val m = (lo + hi) >>> 1
      if (sorted(m) < v) lo = m + 1 else hi = m
    }
    lo
  }

  /** Instantiate one query of `tpl` anchored at data row `anchor`, with
    * per-range-dimension rank-width `width` (fraction of rows).
    */
  private def instantiate(
      store: ColumnStore,
      sorted: Array[Array[Long]],
      tpl: QueryTemplate,
      anchor: Int,
      width: Double
  ): RangeQuery = {
    val q = RangeQuery.full(store.numDims)
    val n = store.numRows
    for (dim <- tpl.eqDims) {
      val v = store(dim, anchor)
      q.lo(dim) = v; q.hi(dim) = v
    }
    for (dim <- tpl.rangeDims) {
      val v = store(dim, anchor)
      val r = rankOf(sorted(dim), v)
      val radius = math.max(1, (width * n / 2).toInt)
      q.lo(dim) = sorted(dim)(math.max(0, r - radius))
      q.hi(dim) = sorted(dim)(math.min(n - 1, r + radius))
    }
    q
  }

  /** Measured selectivity of `q` on a row sample. */
  private def measuredSel(store: ColumnStore, q: RangeQuery, sampleRows: Array[Int]): Double = {
    var hits = 0
    var i = 0
    while (i < sampleRows.length) {
      if (q.matchesRow(store, sampleRows(i))) hits += 1
      i += 1
    }
    hits.toDouble / sampleRows.length
  }

  /** Calibrate the per-dimension rank width of a template so instances hit
    * ~`targetSel` (paper: ranges scaled so average selectivity is 0.1%).
    */
  private def calibrateWidth(
      store: ColumnStore,
      sorted: Array[Array[Long]],
      tpl: QueryTemplate,
      targetSel: Double,
      rng: Random,
      sampleRows: Array[Int]
  ): Double = {
    val k = math.max(1, tpl.rangeDims.length)
    var width = math.pow(targetSel, 1.0 / k)
    var iter = 0
    while (iter < 3) {
      val sels = Array.fill(8) {
        val q = instantiate(store, sorted, tpl, rng.nextInt(store.numRows), width)
        measuredSel(store, q, sampleRows)
      }
      val avg = math.max(1e-7, sels.sum / sels.length)
      val factor = math.pow(targetSel / avg, 1.0 / k)
      width = math.min(0.9, math.max(1e-5, width * math.max(0.2, math.min(5.0, factor))))
      iter += 1
    }
    width
  }

  /** The standard OLAP workload of a named dataset: queries drawn from its
    * templates (skewed type frequencies), calibrated to `targetSel`, split
    * into train/test.
    */
  def standard(
      ds: Dataset,
      nTrain: Int = 80,
      nTest: Int = 40,
      seed: Long = 7,
      targetSel: Double = 0.001
  ): Workload = {
    val rng = new Random(seed)
    val tpls = templates(ds.name)
    val store = ds.store
    val sorted = sortedColumns(store)
    val sampleRows = Array.fill(math.min(20000, store.numRows))(rng.nextInt(store.numRows))
    val widths = tpls.map(t => calibrateWidth(store, sorted, t, targetSel, rng, sampleRows))
    // skewed type frequencies: geometric-ish decay, as in real report workloads
    val weights = tpls.indices.map(i => math.pow(0.7, i)).toArray
    val wSum = weights.sum
    def draw(): RangeQuery = {
      var u = rng.nextDouble() * wSum
      var t = 0
      while (t < weights.length - 1 && u > weights(t)) { u -= weights(t); t += 1 }
      instantiate(store, sorted, tpls(t), rng.nextInt(store.numRows), widths(t))
    }
    Workload(Array.fill(nTrain)(draw()), Array.fill(nTest)(draw()))
  }

  /** Average per-dimension selectivity of the queries that filter each
    * dimension, measured on a row sample; 1.0 for never-filtered dimensions.
    * (Used to order dimensions for Flood and the tuned baselines.)
    */
  def dimSelectivity(store: ColumnStore, queries: Array[RangeQuery], seed: Long = 5): Array[Double] = {
    val rng = new Random(seed)
    val sample = Array.fill(math.min(20000, store.numRows))(rng.nextInt(store.numRows))
    val sums = Array.fill(store.numDims)(0.0)
    val cnts = Array.fill(store.numDims)(0)
    for (q <- queries; dim <- q.filteredDims) {
      var hits = 0
      var i = 0
      while (i < sample.length) {
        if (q.contains(dim, store(dim, sample(i)))) hits += 1
        i += 1
      }
      sums(dim) += hits.toDouble / sample.length
      cnts(dim) += 1
    }
    Array.tabulate(store.numDims)(d => if (cnts(d) == 0) 1.0 else sums(d) / cnts(d))
  }

  /** Dimensions ordered by increasing average selectivity (most selective
    * first); never-filtered dimensions last.
    */
  def selectivityOrder(store: ColumnStore, queries: Array[RangeQuery]): Array[Int] = {
    val sel = dimSelectivity(store, queries)
    Array.range(0, store.numDims).sortBy(sel)
  }
}
