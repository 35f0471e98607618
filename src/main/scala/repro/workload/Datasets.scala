package repro.workload

import org.apache.spark.sql.SparkSession
import repro.SynthData
import repro.store.ColumnStore

/** A named evaluation dataset: the in-memory store plus the dimension that
  * queries aggregate (SUM) over.
  */
final case class Dataset(name: String, store: ColumnStore, aggDim: Int) {
  def numDims: Int = store.numDims
  def numRows: Int = store.numRows
}

/** Loaders for the four evaluation datasets (paper Table 1; see DESIGN.md
  * for the scale-down and the synthetic substitutions). Data is generated by
  * Spark (`SynthData`) and collected into the single-threaded column store
  * the timed experiments run on.
  */
object Datasets {

  /** Default bench scale (paper: 30M/300M/105M/230M records — we run at
    * ~1/600 scale; shapes, not absolute times, are the reproduction target).
    */
  val BenchRows: Map[String, Int] = Map(
    "sales"   -> 150000,
    "tpch"    -> 500000,
    "osm"     -> 300000,
    "perfmon" -> 300000
  )

  val Names: Seq[String] = Seq("sales", "tpch", "osm", "perfmon")

  /** Load a dataset by name at `rows` records. */
  def load(spark: SparkSession, name: String, rows: Int, seed: Long = 42): Dataset = {
    val (df, cols, aggCol) = name match {
      case "sales" =>
        (SynthData.salesMulti(spark, rows, seed),
          Seq("order_id", "customer_id", "product_id", "quantity", "price_cents", "sale_day"),
          "price_cents")
      case "tpch" =>
        (SynthData.lineitemMulti(spark, rows, seed),
          Seq("orderkey", "partkey", "suppkey", "quantity", "discount", "shipdate", "receiptdate"),
          "quantity")
      case "osm" =>
        (SynthData.osmMulti(spark, rows, seed),
          Seq("osm_id", "ts", "lat", "lon", "rec_type", "category"),
          "osm_id")
      case "perfmon" =>
        (SynthData.perfmonMulti(spark, rows, seed),
          Seq("log_ts", "machine", "cpu", "mem_mb", "swap_mb", "loadavg"),
          "cpu")
      case other => throw new IllegalArgumentException(s"unknown dataset $other")
    }
    val store = ColumnStore.fromDataFrame(df, cols)
    Dataset(name, store, store.dimIndex(aggCol))
  }

  /** Load at the default bench scale. */
  def loadBench(spark: SparkSession, name: String, seed: Long = 42): Dataset =
    load(spark, name, BenchRows(name), seed)
}
