package floodbench

import repro.baselines.FullScan
import repro.core.{CdfFlattening, Flattening, FloodIndex, Layout}
import repro.model.{Plm, SearchUtil}
import repro.opt.{AnalyticCostModel, Calibration, CostModel, LayoutEvaluator, LayoutOptimizer}
import repro.store.{ColumnStore, RangeQuery}
import repro.workload.{Dataset, Datasets}

import scala.collection.mutable.ArrayBuffer

final case class Metric(name: String, value: Double, unit: String)

/** What one run prints and records. */
final case class Report(
    correct: Boolean,
    attempted: Long,
    failed: Long,
    metrics: Seq[Metric],
    info: Seq[String],
    record: Seq[(String, String)],
    querySpans: Option[QuerySpans]
) {
  private def num(v: Double): String = {
    require(!v.isNaN && !v.isInfinite, s"non-finite metric value $v")
    java.lang.Double.toString(v)
  }

  def resultJson: String = {
    val ms = metrics.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }

  /** The full record: the result plus every `record` entry (already JSON). */
  def recordJson: String =
    (("result" -> resultJson) +: record).map { case (k, v) => s"""  "$k": $v""" }.mkString("{\n", ",\n", "\n}\n")
}

object Runner {

  /** Per-query spans kept in a traced run at most. */
  val MaxQuerySpans = 200000
  /** Layouts `Calibration.calibrate` times (paper §4.1.1: about ten). */
  val CalibrationLayouts = 10
  /** Rows calibration runs on. Calibration is once per machine on any data
    * (paper §4.1.1); an evenly strided sample of the workload's own data
    * keeps it from building ten full-size indexes on the largest dataset.
    */
  val CalibrationRows = 100000
  /** Warm-up: pass length, minimum passes, and cap on the whole warm-up. */
  val WarmPassSeconds = 1.0
  val WarmMinPasses = 3
  val WarmMaxSeconds = 4.0

  private def secs(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def str(s: String): String = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""

  /** Order-sensitive 64-bit checksum of every value of the store. */
  def checksum(store: ColumnStore): String = {
    var h = 0xcbf29ce484222325L
    for (col <- store.columns) {
      var i = 0
      while (i < col.length) { h = (h ^ col(i)) * 0x100000001b3L; h ^= h >>> 29; i += 1 }
    }
    f"$h%016x"
  }

  def layoutString(l: Layout): String =
    l.gridDims.zip(l.cols).map { case (d, c) => s"d$d*$c" }.mkString("grid=", ",", s";sort=d${l.sortDim}")

  /** Every `n / CalibrationRows`-th row of `ds` (all of it when small). */
  def calibrationSample(ds: Dataset): Dataset = {
    val step = math.max(1, ds.numRows / CalibrationRows)
    if (step == 1) ds
    else {
      val cols = ds.store.columns.map(c => Array.tabulate(c.length / step)(i => c(i * step)))
      Dataset(ds.name, new ColumnStore(ds.store.names, cols), ds.aggDim)
    }
  }

  final class Setup(val index: FloodIndex, val totalS: Double, val flattenS: Double, val loadS: Double)

  /** `CdfFlattening.train` + `new FloodIndex` on the pinned layout. */
  def setupOnce(ds: Dataset, layout: Layout, tracer: Tracer): Setup = tracer.span("setup") {
    System.gc() // each set-up starts from the same, collected heap
    val t0 = System.nanoTime()
    val flat = tracer.span("core.CdfFlattening.train")(CdfFlattening.train(ds.store))
    val flattenS = secs(t0)
    val index = tracer.span("core.FloodIndex.new")(new FloodIndex(ds.store, layout, flat, ds.aggDim))
    new Setup(index, secs(t0), flattenS, index.buildNanos / 1e9)
  }

  final class Learned(val model: CostModel, val result: LayoutOptimizer.Result, val calibrateS: Double, val totalS: Double)

  /** `Calibration.calibrate` + `LayoutOptimizer.optimize` (paper Table 4
    * "Flood Learning", plus the once-per-machine calibration).
    */
  def learn(ds: Dataset, train: Array[RangeQuery], flat: Flattening, tracer: Tracer): Learned =
    tracer.span("learn") {
      val t0 = System.nanoTime()
      val model = tracer.span("opt.Calibration.calibrate")(
        Calibration.calibrate(calibrationSample(ds), train, CalibrationLayouts))
      val calibrateS = secs(t0)
      val res = tracer.span("opt.LayoutOptimizer.optimize")(LayoutOptimizer.optimize(ds, flat, train, model))
      new Learned(model, res, calibrateS, secs(t0))
    }

  def run(spec: Spec, opts: Main.Opts, tracer: Tracer): Report = {
    val info = ArrayBuffer.empty[String]
    val record = ArrayBuffer.empty[(String, String)]
    val threads = math.max(1, math.min(4, Runtime.getRuntime.availableProcessors()))

    // ---- inputs: data and queries from the seed ----
    val spark = Main.spark(opts.out.resolve("tmp"))
    val t0 = System.nanoTime()
    val ds = tracer.span("workload.Datasets.load")(Datasets.load(spark, spec.dataset, spec.rows, opts.seed))
    val datagenS = secs(t0)
    if (!opts.trace) spark.stop() // a traced run measures the Spark layer last
    val sum = checksum(ds.store)
    val tQueries = System.nanoTime()
    val wl = tracer.span("workload.queries")(spec.queries(ds, spec.distinct, opts.seed))
    val qs = wl.test
    val truth = tracer.span("check.Scan.brute")(Truth.brute(ds, qs, threads))
    val queriesS = secs(tQueries)
    info += s"workload=${spec.name} dataset=${spec.dataset} rows=${ds.numRows} dims=${ds.numDims} " +
      s"seed=${opts.seed} data_checksum=$sum distinct_queries=${qs.length} " +
      s"mean_matches=${truth.count.sum.toDouble / qs.length}"

    // ---- set-up on the pinned layout, repeated; the last index is kept ----
    val setups = (0 until spec.setupReps).map(_ => setupOnce(ds, spec.pinned, tracer))
    val index = setups.last.index
    val setupS = Stats.median(setups.map(_.totalS))

    // ---- warm-up on the workload's own queries, then the timed loop ----
    System.gc()
    val tWarm = System.nanoTime()
    val warm = tracer.span("warmup")(
      Measure.warmUp(index, qs, truth, WarmPassSeconds, WarmMinPasses, WarmMaxSeconds))
    val warmS = secs(tWarm)
    val loopSeconds = if (opts.trace) opts.seconds / 2 else opts.seconds
    val loop = tracer.span("loop")(Measure.closedLoop(index, qs, truth, loopSeconds))
    // a traced run repeats the loop with tracing, before learning runs
    val traced = if (!opts.trace) None else Some(tracer.span("loop.traced") {
      val sp = new QuerySpans(MaxQuerySpans, tracer.current)
      (Measure.closedLoop(index, qs, truth, loopSeconds, sp), sp)
    })
    var attempted = warm.completed + loop.completed + traced.map(_._1.completed).getOrElse(0L)
    var failed = warm.failed + loop.failed + traced.map(_._1.failed).getOrElse(0L)

    // ---- learning: timed in every run, its layout recorded ----
    val learned = learn(ds, wl.train, index.flattening, tracer)
    info += s"pinned_layout=${layoutString(spec.pinned)} learned_layout=${layoutString(learned.result.layout)}"
    info += s"latency_samples=${loop.samples} windows=${loop.windows.length} " +
      s"queries_timed=${loop.completed} " +
      s"warmup_p50_us=${warm.p50sUs.map(v => f"$v%.3f").mkString(",")}"
    info += f"stage_s: datagen=$datagenS%.2f queries+check=$queriesS%.2f setup=${setups.map(_.totalS).sum}%.2f " +
      f"warmup=$warmS%.2f learn=${learned.totalS}%.2f (calibrate=${learned.calibrateS}%.2f)"

    record ++= Seq(
      "workload" -> str(spec.name), "seed" -> opts.seed.toString, "rows" -> ds.numRows.toString,
      "data_checksum" -> str(sum), "distinct_queries" -> qs.length.toString,
      "pinned_layout" -> str(layoutString(spec.pinned)),
      "learned_layout" -> str(layoutString(learned.result.layout)),
      "latency_samples" -> loop.samples.toString,
      "window_p50_us" -> loop.windows.map(w => (w.p50Ns / 1e3).toString).mkString("[", ", ", "]"),
      "window_p99_us" -> loop.windows.map(w => (w.p99Ns / 1e3).toString).mkString("[", ", ", "]"),
      "window_qps" -> loop.windows.map(w => w.qps.toString).mkString("[", ", ", "]"),
      "warmup_pass_p50_us" -> warm.p50sUs.map(_.toString).mkString("[", ", ", "]"),
      "setup_s_each" -> setups.map(_.totalS.toString).mkString("[", ", ", "]"))

    val metrics =
      if (!opts.trace) Seq(
        Metric("query_p50_us", loop.p50Ns / 1e3, "us"),
        Metric("query_p99_us", loop.p99Ns / 1e3, "us"),
        Metric("throughput_qps", loop.qps, "1/s"),
        Metric("setup_s", setupS, "s"),
        Metric("index_bytes", index.sizeBytes.toDouble, "bytes"))
      else {
        val (tracedLoop, spans) = traced.get
        record += "query_spans_dropped" -> spans.dropped.toString
        // the learned layout, built and timed on the same queries
        val learnedRun = tracer.span("learned.index") {
          val idx = new FloodIndex(ds.store, learned.result.layout, index.flattening, ds.aggDim)
          Measure.warmUp(idx, qs, truth, WarmPassSeconds, WarmMinPasses, 3.0)
        }
        attempted += learnedRun.completed
        failed += learnedRun.failed
        val layers = layerMetrics(ds, wl.train, qs, index, setups, learned, spans, loop, tracedLoop, datagenS, tracer) :+
          Metric("opt.learned_p50_us", learnedRun.p50sUs.last, "us")
        val sp = tracer.span("spark")(SparkProbe.run(spark, spec, ds, opts.seed, qs, truth, loopSeconds, tracer))
        spark.stop()
        attempted += sp.attempted
        failed += sp.failed
        layers ++ Seq(
          Metric("spark.layout_s", sp.layoutS, "s"),
          Metric("spark.plan_us", sp.planUs, "us"),
          Metric("spark.exec_ms", sp.execMs, "ms"),
          Metric("spark.cells_touched", sp.cellsTouched, "count"))
      }
    Report(failed == 0, attempted, failed, metrics, info.toSeq, record.toSeq, traced.map(_._2))
  }

  /** The per-layer metrics of a traced run. */
  def layerMetrics(
      ds: Dataset,
      train: Array[RangeQuery],
      qs: Array[RangeQuery],
      index: FloodIndex,
      setups: Seq[Setup],
      learned: Learned,
      spans: QuerySpans,
      plain: LoopResult,
      traced: LoopResult,
      datagenS: Double,
      tracer: Tracer
  ): Seq[Metric] = {
    val layout = index.layout
    val flat = index.flattening
    val sDim = layout.sortDim

    // phase timings of the traced loop, from the counters at the query boundary
    val m = spans.size
    val proj = spans.projNs.take(m)
    val refine = spans.refineNs.take(m)
    val scan = spans.scanNs.take(m)
    val scannedSum = spans.scanned.take(m).sum.toDouble
    // measured Eq. 1 time of each distinct query: median over its executions
    val perQuery = Array.fill(qs.length)(new LongBuf)
    for (i <- 0 until m) perQuery(spans.query(i)).add(proj(i) + refine(i) + scan(i))

    // exact counts: one pass over the distinct queries
    var cells = 0.0; var nonEmpty = 0.0; var scanned = 0.0; var matched = 0.0; var exact = 0.0
    tracer.span("core.counts") {
      for (q <- qs) {
        val st = index.queryWithStats(q)
        cells += st.cellsInRect; nonEmpty += st.nonEmptyCells
        scanned += st.scanned; matched += st.count; exact += st.exactPoints
      }
    }

    // the scan kernel alone: a full scan of the same queries
    val fullScanP50 = tracer.span("baselines.FullScan.query") {
      val fs = new FullScan(ds.store, ds.aggDim)
      val lat = new LongBuf
      val t0 = System.nanoTime()
      var i = 0
      while (i < qs.length && (i < 20 || System.nanoTime() - t0 < 2000000000L)) {
        val t = System.nanoTime(); fs.query(qs(i)); lat.add(System.nanoTime() - t); i += 1
      }
      Stats.quantile(lat.toArray, 0.5) / 1e3
    }

    // PLMs rebuilt on every cell of the pinned index, and their guess error
    val data = index.data
    val cellStart = index.cellTable
    val sortCol = data.columns(sDim)
    val numCells = cellStart.length - 1
    val plms = new Array[Plm](numCells)
    val tPlm = System.nanoTime()
    tracer.span("model.Plm.build") {
      var c = 0
      while (c < numCells) {
        if (cellStart(c + 1) - cellStart(c) >= 32) plms(c) = Plm.build(sortCol, cellStart(c), cellStart(c + 1), 50.0)
        c += 1
      }
    }
    val plmBuildS = secs(tPlm)
    var errSum = 0.0
    var errN = 0L
    tracer.span("model.Plm.predict") {
      for (q <- qs if q.filters(sDim); c <- touchedCells(layout, flat, q) if plms(c) != null) {
        val s = cellStart(c); val e = cellStart(c + 1)
        for (b <- Seq(q.lo(sDim), q.hi(sDim))) {
          val truePos = SearchUtil.binaryLowerBound(sortCol, b, s, e)
          errSum += math.abs(s + plms(c).predict(b) - truePos)
          errN += 1
        }
      }
    }

    // cost model against measured time on the pinned layout (paper §4.1.2)
    val tCollect = System.nanoTime()
    val examples = tracer.span("opt.Calibration.collectExamples")(Calibration.collectExamples(calibrationSample(ds), train, CalibrationLayouts))
    val collectS = secs(tCollect)
    val analytic = new AnalyticCostModel(
      Stats.median(examples.map(_.wp)),
      Stats.median(examples.filter(_.features.refined).map(_.wr) match { case Seq() => Seq(0.0); case w => w }),
      Stats.median(examples.map(_.ws)))
    val eval = new LayoutEvaluator(ds, flat, qs, 4000, 31)
    val errs = ArrayBuffer.empty[Double]
    val aerrs = ArrayBuffer.empty[Double]
    tracer.span("opt.CostModel.predictNanos") {
      for (qi <- qs.indices) {
        val runs = perQuery(qi).toArray
        if (runs.nonEmpty) {
          val measured = Stats.quantile(runs, 0.5)
          val f = eval.features(layout, qi)
          errs += math.abs(learned.model.predictNanos(f) - measured) / measured
          aerrs += math.abs(analytic.predictNanos(f) - measured) / measured
        }
      }
    }

    Seq(
      Metric("store.scan_ns", Stats.quantile(scan, 0.5), "ns"),
      Metric("store.ns_per_point", scan.sum / math.max(1.0, scannedSum), "ns/point"),
      Metric("store.fullscan_p50_us", fullScanP50, "us"),
      Metric("core.projection_ns", Stats.quantile(proj, 0.5), "ns"),
      Metric("core.refine_ns", Stats.quantile(refine, 0.5), "ns"),
      Metric("core.cells_in_rect", cells / qs.length, "count"),
      Metric("core.nonempty_cells", nonEmpty / qs.length, "count"),
      Metric("core.scan_overhead", scanned / math.max(1.0, matched), "ratio"),
      Metric("core.exact_frac", exact / math.max(1.0, scanned), "ratio"),
      Metric("core.flatten_s", Stats.median(setups.map(_.flattenS)), "s"),
      Metric("core.load_s", Stats.median(setups.map(_.loadS)), "s"),
      Metric("core.plm_bytes", index.plmBytes.toDouble, "bytes"),
      Metric("model.plm_build_s", plmBuildS, "s"),
      Metric("model.plm_err_rows", errSum / math.max(1L, errN), "rows"),
      Metric("opt.learn_s", learned.totalS, "s"),
      Metric("opt.calibrate_s", learned.calibrateS, "s"),
      Metric("opt.calibrate_collect_s", collectS, "s"),
      Metric("opt.search_s", learned.result.learnNanos / 1e9, "s"),
      Metric("opt.cost_err", Stats.median(errs.toSeq), "ratio"),
      Metric("opt.analytic_cost_err", Stats.median(aerrs.toSeq), "ratio"),
      Metric("workload.datagen_s", datagenS, "s"),
      Metric("trace.overhead_frac", traced.p50Ns / plain.p50Ns - 1, "ratio")
    )
  }

  /** Cells of `layout` that the rectangle of `q` intersects (projection). */
  def touchedCells(layout: Layout, flat: Flattening, q: RangeQuery): Seq[Int] = {
    val g = layout.gridDims
    val strides = layout.strides
    val ranges = g.indices.map { i =>
      val dim = g(i)
      if (q.filters(dim)) flat.colOf(dim, q.lo(dim), layout.cols(i)) to flat.colOf(dim, q.hi(dim), layout.cols(i))
      else 0 until layout.cols(i)
    }
    ranges.zip(strides).foldLeft(Seq(0L)) { case (ids, (r, st)) => for (id <- ids; c <- r) yield id + c * st }
      .map(_.toInt)
  }
}
