package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.FullScan
import repro.core.{CdfFlattening, Flattening, FloodIndex, FloodStats, Layout}
import repro.model.{Plm, SearchUtil}
import repro.opt.{AnalyticCostModel, Calibration, CostModel, LayoutEvaluator, LayoutOptimizer}
import repro.spark.FloodSpark
import repro.store.{ColumnStore, RangeQuery, Scan}
import repro.workload.{Dataset, Datasets, Workloads}

/** The benchmark under `floodbench/` compiles `src/main/scala` only when its
  * `run.py` builds it, so a main-code member it calls that is removed or
  * renamed would surface as a failed benchmark run. `FloodbenchSurfaceSpec.calls`
  * makes every such call, with the benchmark's argument shapes, so that the
  * break fails `Test/compile` instead. Nothing in it is run.
  */
class FloodbenchSurfaceSpec extends AnyFunSuite {

  test("the benchmark's calls into main code compile") {
    // the check is that `calls` compiles; it is not run, since it would
    // load and index the benchmark's full-size data
    succeed
  }
}

object FloodbenchSurfaceSpec {

  def calls(spark: SparkSession, df: DataFrame, seed: Long, q: RangeQuery): Seq[Any] = {
    // data and queries (floodbench Runner, Workloads, SparkProbe)
    val ds: Dataset = Datasets.load(spark, "tpch", 2000000, seed)
    val gen: DataFrame = SynthData.osmMulti(spark, 300000, seed)
    val gen2: DataFrame = SynthData.lineitemMulti(spark, 2000000, seed)
    val wl: Workloads.Workload = Workloads.standard(ds, 80, 400, seed, targetSel = 0.01)
    val qs: Array[RangeQuery] = wl.test
    val train: Array[RangeQuery] = wl.train
    val sample = Dataset(ds.name, new ColumnStore(ds.store.names, ds.store.columns), ds.aggDim)
    val (c, s): (Long, Long) = Scan.brute(ds.store, q, ds.aggDim)
    val shape = (ds.numRows, ds.numDims, q.filteredDims, q.filters(0), q.lo(0), q.hi(0))

    // the pinned index
    val layout = Layout(Array(6, 2, 5, 3, 4, 1, 0), Array(1, 3, 96, 12, 4, 1))
    val flat: Flattening = CdfFlattening.train(ds.store)
    val index = new FloodIndex(ds.store, layout, flat, ds.aggDim)
    val r = index.query(q)
    val st: FloodStats = index.queryWithStats(q)
    val counters = (r.count, r.sum, st.count, st.sum, st.scanned, st.exactPoints, st.cellsInRect,
      st.nonEmptyCells, st.projectionNanos, st.refineNanos, st.scanNanos)
    val sizes = (index.buildNanos, index.sizeBytes, index.plmBytes)
    val l = index.layout
    val grid = (l.gridDims, l.cols, l.sortDim, l.strides, index.flattening.colOf(0, q.lo(0), 4))
    val sortCol: Array[Long] = index.data.columns(l.sortDim)
    val cellStart: Array[Int] = index.cellTable

    // the per-cell model metrics
    val plm: Plm = Plm.build(sortCol, cellStart(0), cellStart(1), 50.0)
    val err = cellStart(0) + plm.predict(q.lo(0)) - SearchUtil.binaryLowerBound(sortCol, q.lo(0), cellStart(0), cellStart(1))

    // learning and the cost model
    val model: CostModel = Calibration.calibrate(sample, train, 10)
    val learned: LayoutOptimizer.Result = LayoutOptimizer.optimize(ds, flat, train, model)
    val examples: Seq[Calibration.Example] = Calibration.collectExamples(sample, train, 10)
    val e = examples.head
    val analytic = new AnalyticCostModel(e.wp, e.wr, e.ws)
    val f = new LayoutEvaluator(ds, flat, qs, 4000, 31).features(layout, 0)
    val predicted = (model.predictNanos(f), analytic.predictNanos(f), e.features.refined)
    val learnedRun = (learned.layout, learned.learnNanos, new FloodIndex(ds.store, learned.layout, index.flattening, ds.aggDim))

    // the scan baseline
    val full = new FullScan(ds.store, ds.aggDim).query(q)

    // Spark
    val sparkLayout = FloodSpark.learnLayout(df, Seq("shipdate", "quantity"), Seq(96, 12), "orderkey")
    val laidOut: DataFrame = FloodSpark.applyLayout(df, sparkLayout)
    val preds: Seq[(String, Long, Long)] = q.filteredDims.map(d => (ds.store.names(d), q.lo(d), q.hi(d))).toSeq
    val scanned: DataFrame = FloodSpark.scan(laidOut, sparkLayout, preds)
    val touched: Long = FloodSpark.cellsTouched(sparkLayout, preds)

    Seq(gen, gen2, c, s, shape, counters, sizes, grid, err, predicted, learnedRun, full, scanned, touched)
  }
}
