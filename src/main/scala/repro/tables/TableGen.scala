package repro.tables

import org.apache.spark.sql.SparkSession
import repro.baselines._
import repro.core.{CdfFlattening, FloodIndex}
import repro.opt.{Calibration, CostModel, LayoutOptimizer}
import repro.store.{MultiDimIndex, RangeQuery}
import repro.workload.{Dataset, Datasets, Workloads}

import scala.collection.mutable.ArrayBuffer

/** Reproduces the paper's evaluation tables (Tables 1–4). Shared by the
  * `jobs/` spark-submit entrypoints and the `bench` test suites; see
  * EXPERIMENTS.md for paper-vs-measured numbers.
  */
object TableGen {

  /** Aggregated per-index metrics in the units of the paper's Table 2:
    * SO (ratio), TPS (ns/point), ST (ms), IT (ms), TT (ms).
    */
  final case class IndexMetrics(
      name: String,
      so: Double,
      tps: Double,
      stMs: Double,
      itMs: Double,
      ttMs: Double,
      sizeBytes: Long,
      buildSec: Double
  )

  final case class DatasetRun(
      dataset: Dataset,
      metrics: Seq[IndexMetrics],
      floodLearnSec: Double,
      floodLoadSec: Double,
      numQueries: Int
  )

  /** Run `queries` through `idx` (one warm-up pass, one measured pass) and
    * aggregate the Table-2 metrics.
    */
  def measure(idx: MultiDimIndex, queries: Array[RangeQuery]): IndexMetrics = {
    for (q <- queries) idx.query(q)
    var scanned = 0L; var matched = 0L
    var scanNs = 0L; var idxNs = 0L
    for (q <- queries) {
      val r = idx.query(q)
      scanned += r.scanned; matched += r.count
      scanNs += r.scanNanos; idxNs += r.indexNanos
    }
    val nq = queries.length
    IndexMetrics(
      name = idx.name,
      so = scanned.toDouble / math.max(1L, matched),
      tps = scanNs.toDouble / math.max(1L, scanned),
      stMs = scanNs / 1e6 / nq,
      itMs = idxNs / 1e6 / nq,
      ttMs = (scanNs + idxNs) / 1e6 / nq,
      sizeBytes = idx.sizeBytes,
      buildSec = idx.buildNanos / 1e9
    )
  }

  /** Tune an index's page size on the train workload (the paper hand-tunes
    * every baseline per workload — §7.4 "best case scenario").
    */
  def tunePageSize(build: Int => MultiDimIndex, train: Array[RangeQuery],
                   candidates: Seq[Int] = Seq(512, 2048, 8192)): MultiDimIndex = {
    candidates.map { ps =>
      val idx = build(ps)
      for (q <- train) idx.query(q)
      val tt = train.map(q => idx.query(q).totalNanos).sum
      (tt, idx)
    }.minBy(_._1)._2
  }

  /** Flood's learn-then-build sequence: train the flattening on the data,
    * learn the layout for `train` under `model`, then load the index.
    */
  private def learnAndBuild(ds: Dataset, train: Array[RangeQuery], model: CostModel,
                            seed: Long): (LayoutOptimizer.Result, FloodIndex) = {
    val flat = CdfFlattening.train(ds.store)
    val learned = LayoutOptimizer.optimize(ds, flat, train, model, seed = seed)
    (learned, new FloodIndex(ds.store, learned.layout, flat, ds.aggDim))
  }

  /** Build every index (tuned on the train set) for a dataset and measure
    * the test set. Returns Table-2 rows plus the Table-4 build times.
    */
  def runDataset(ds: Dataset, model: CostModel, seed: Long = 3): DatasetRun = {
    val wl = Workloads.standard(ds, seed = seed)
    val store = ds.store
    val selOrder = Workloads.selectivityOrder(store, wl.train)
    val out = new ArrayBuffer[IndexMetrics]()

    out += measure(new FullScan(store, ds.aggDim), wl.test)
    out += measure(new ClusteredIndex(store, selOrder(0), ds.aggDim), wl.test)
    out += measure(
      tunePageSize(ps => new ZOrderIndex(store, selOrder, ps, ds.aggDim), wl.train), wl.test)
    out += measure(
      tunePageSize(ps => new UBTree(store, selOrder, ps, ds.aggDim), wl.train), wl.test)
    out += measure(
      tunePageSize(ps => new HyperOctree(store, ps, ds.aggDim), wl.train), wl.test)
    out += measure(
      tunePageSize(ps => new KdTree(store, selOrder, ps, ds.aggDim), wl.train), wl.test)
    // Grid File explodes on heavily skewed data (the paper reports N/A there)
    try {
      out += measure(
        tunePageSize(ps => new GridFile(store, ps, ds.aggDim), wl.train, Seq(512, 2048)), wl.test)
    } catch {
      case _: GridFileAborted =>
        out += IndexMetrics("Grid File", Double.NaN, Double.NaN, Double.NaN, Double.NaN,
          Double.NaN, 0L, Double.NaN)
    }
    out += measure(
      tunePageSize(ps => new RStarTree(store, selOrder, ps, 16, ds.aggDim), wl.train), wl.test)

    // Flood: learn the layout (the only index NOT hand-tuned), then load
    val (learned, flood) = learnAndBuild(ds, wl.train, model, seed)
    out += measure(flood, wl.test)

    DatasetRun(ds, out.toSeq, learned.learnNanos / 1e9, flood.buildNanos / 1e9,
      wl.train.length + wl.test.length)
  }

  /** Calibrate the machine's cost model once, on one dataset (paper §4.1.1:
    * an arbitrary — possibly synthetic — dataset suffices; Table 3 verifies
    * robustness across choices).
    */
  def calibrateOnce(spark: SparkSession, name: String = "sales", rows: Int = 100000,
                    numLayouts: Int = 8, seed: Long = 23): CostModel = {
    val ds = Datasets.load(spark, name, rows, seed = 91)
    val wl = Workloads.standard(ds, seed = seed)
    Calibration.calibrate(ds, wl.train, numLayouts, seed)
  }

  // ------------------------------------------------------------------
  // Table 1: dataset & query characteristics
  // ------------------------------------------------------------------
  def table1(spark: SparkSession, rows: Map[String, Int] = Datasets.BenchRows): String = {
    val sb = new StringBuilder
    sb ++= f"${"" }%-12s${"sales"}%12s${"tpch"}%12s${"osm"}%12s${"perfmon"}%12s\n"
    val dss = Datasets.Names.map(n => Datasets.load(spark, n, rows(n)))
    val wls = dss.map(ds => Workloads.standard(ds))
    def row(label: String, f: (Dataset, Workloads.Workload) => String): Unit = {
      sb ++= f"$label%-12s"
      dss.zip(wls).foreach { case (ds, wl) => sb ++= f"${f(ds, wl)}%12s" }
      sb ++= "\n"
    }
    row("records", (ds, _) => ds.numRows.toString)
    row("queries", (_, wl) => (wl.train.length + wl.test.length).toString)
    row("dimensions", (ds, _) => ds.numDims.toString)
    row("size (MB)", (ds, _) => f"${ds.store.dataBytes / 1e6}%.1f")
    sb.result()
  }

  // ------------------------------------------------------------------
  // Table 2: performance breakdown (SO, TPS, ST, IT, TT) per index/dataset
  // ------------------------------------------------------------------
  def table2(runs: Seq[DatasetRun]): String = {
    val sb = new StringBuilder
    def fmt(x: Double, f: String): String = if (x.isNaN) "N/A" else f.format(x)
    for (run <- runs) {
      sb ++= s"== ${run.dataset.name} (${run.dataset.numRows} rows, ${run.numQueries} queries) ==\n"
      sb ++= f"${"index"}%-12s${"SO"}%10s${"TPS(ns)"}%10s${"ST(ms)"}%10s${"IT(ms)"}%10s${"TT(ms)"}%10s${"size(KB)"}%10s\n"
      for (m <- run.metrics) {
        sb ++= f"${m.name}%-12s${fmt(m.so, "%.2f")}%10s${fmt(m.tps, "%.2f")}%10s" +
          f"${fmt(m.stMs, "%.4f")}%10s${fmt(m.itMs, "%.4f")}%10s${fmt(m.ttMs, "%.4f")}%10s" +
          f"${m.sizeBytes / 1024.0}%10.1f\n"
      }
      sb ++= "\n"
    }
    sb.result()
  }

  // ------------------------------------------------------------------
  // Table 3: cost-model robustness — layouts learned with models calibrated
  // on each dataset, evaluated everywhere (diagonal = "native" model)
  // ------------------------------------------------------------------
  def table3(spark: SparkSession, rows: Map[String, Int], calibLayouts: Int = 6,
             seed: Long = 5): String = {
    val names = Datasets.Names
    val dss = names.map(n => Datasets.load(spark, n, rows(n)))
    val wls = dss.map(ds => Workloads.standard(ds, seed = seed))
    val models = dss.zip(wls).map { case (ds, wl) =>
      Calibration.calibrate(ds, wl.train, calibLayouts, seed)
    }
    // tt(modelIdx)(dataIdx)
    val tt = Array.ofDim[Double](names.length, names.length)
    for (mi <- names.indices; di <- names.indices) {
      val ds = dss(di); val wl = wls(di)
      val (_, flood) = learnAndBuild(ds, wl.train, models(mi), seed)
      tt(mi)(di) = measure(flood, wl.test).ttMs
    }
    val sb = new StringBuilder
    sb ++= f"${"model \\ data"}%-14s" + names.map(n => f"$n%16s").mkString + "\n"
    for (mi <- names.indices) {
      sb ++= f"${names(mi)}%-14s"
      for (di <- names.indices) {
        val v = tt(mi)(di)
        val diag = tt(di)(di)
        val pct = (v - diag) / diag * 100
        sb ++= (if (mi == di) f"$v%10.4f      " else f"$v%10.4f(${pct}%+.0f%%)")
      }
      sb ++= "\n"
    }
    sb.result()
  }

  // ------------------------------------------------------------------
  // Table 4: index creation time
  // ------------------------------------------------------------------
  def table4(runs: Seq[DatasetRun]): String = {
    val sb = new StringBuilder
    val names = runs.map(_.dataset.name)
    sb ++= f"${"index"}%-16s" + names.map(n => f"$n%12s").mkString + "\n"
    def fmt(x: Double): String = if (x.isNaN) "N/A" else f"$x%.3f"
    sb ++= f"${"Flood Learning"}%-16s" + runs.map(r => f"${fmt(r.floodLearnSec)}%12s").mkString + "\n"
    sb ++= f"${"Flood Loading"}%-16s" + runs.map(r => f"${fmt(r.floodLoadSec)}%12s").mkString + "\n"
    sb ++= f"${"Flood Total"}%-16s" +
      runs.map(r => f"${fmt(r.floodLearnSec + r.floodLoadSec)}%12s").mkString + "\n"
    val baselineNames = runs.head.metrics.map(_.name).filter(_ != "Flood")
    for (bn <- baselineNames if bn != "Full Scan") {
      sb ++= f"$bn%-16s" + runs.map { r =>
        val m = r.metrics.find(_.name == bn).get
        f"${fmt(m.buildSec)}%12s"
      }.mkString + "\n"
    }
    sb.result()
  }
}
