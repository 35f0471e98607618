package floodbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, count, lit, sum}
import org.apache.spark.storage.StorageLevel
import repro.SynthData
import repro.core.Layout
import repro.spark.FloodSpark
import repro.store.RangeQuery
import repro.workload.Dataset

/** The Spark layer, measured in every traced run: the workload's data laid
  * out by `FloodSpark` with the pinned layout's grid dimensions, column
  * counts and sort dimension, cached, then queried with the workload's own
  * queries. Every Spark answer is checked against the same `Truth` as the
  * core engine.
  */
object SparkProbe {

  final case class Result(layoutS: Double, planUs: Double, execMs: Double, cellsTouched: Double,
                          attempted: Long, failed: Long)

  /** The generator behind `Datasets.load` for each dataset; with the same
    * seed and partition count it yields the rows of the core engine's store.
    */
  private def generate(spark: SparkSession, dataset: String, rows: Int, seed: Long): DataFrame = dataset match {
    case "osm" => SynthData.osmMulti(spark, rows, seed)
    case "tpch" => SynthData.lineitemMulti(spark, rows, seed)
  }

  def run(
      spark: SparkSession,
      spec: Spec,
      ds: Dataset,
      seed: Long,
      qs: Array[RangeQuery],
      truth: Truth,
      seconds: Double,
      tracer: Tracer
  ): Result = {
    val names = ds.store.names
    val pinned: Layout = spec.pinned
    val grid = pinned.gridDims.zip(pinned.cols).filter(_._2 > 1)
    val df = generate(spark, spec.dataset, spec.rows, seed)

    // learnLayout + applyLayout + cache materialisation
    val t0 = System.nanoTime()
    val (layout, laidOut) = tracer.span("spark.layout") {
      val layout = tracer.span("spark.FloodSpark.learnLayout")(
        FloodSpark.learnLayout(df, grid.map(g => names(g._1)).toSeq, grid.map(_._2).toSeq, names(pinned.sortDim)))
      val laidOut = tracer.span("spark.FloodSpark.applyLayout")(FloodSpark.applyLayout(df, layout))
        .persist(StorageLevel.MEMORY_ONLY)
      tracer.span("spark.cache")(laidOut.count())
      (layout, laidOut)
    }
    val layoutS = (System.nanoTime() - t0) / 1e9

    val aggName = names(ds.aggDim)
    val plan = new LongBuf
    val exec = new LongBuf
    var cells = 0.0
    var attempted = 0L
    var failed = 0L
    val start = System.nanoTime()
    var i = 0
    // the first queries warm Spark's code generation and are not timed
    val warm = 3
    while (i < qs.length && (i < warm + 10 || System.nanoTime() - start < seconds * 1e9)) {
      val q = qs(i)
      val preds = q.filteredDims.map(d => (names(d), q.lo(d), q.hi(d))).toSeq
      val t1 = System.nanoTime()
      val filtered = tracer.span("spark.FloodSpark.scan")(FloodSpark.scan(laidOut, layout, preds))
      val t2 = System.nanoTime()
      val row = tracer.span("spark.collect")(
        filtered.agg(count(lit(1)).as("cnt"), sum(col(aggName)).as("total")).collect()(0))
      val t3 = System.nanoTime()
      val cnt = row.getLong(0)
      val total = if (row.isNullAt(1)) 0L else row.getLong(1)
      if (cnt != truth.count(i) || total != truth.sum(i)) failed += 1
      attempted += 1
      if (i >= warm) {
        plan.add(t2 - t1); exec.add(t3 - t2)
        cells += FloodSpark.cellsTouched(layout, preds)
      }
      i += 1
    }
    laidOut.unpersist(blocking = true)
    val timed = plan.toArray
    Result(layoutS, Stats.quantile(timed, 0.5) / 1e3, Stats.quantile(exec.toArray, 0.5) / 1e6,
      cells / timed.length, attempted, failed)
  }
}
