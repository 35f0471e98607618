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

  /** Load a dataset by name at `rows` records; its dimensions are the
    * generator's columns, in the generator's order.
    */
  def load(spark: SparkSession, name: String, rows: Int, seed: Long = 42): Dataset = {
    val (df, aggCol) = name match {
      case "sales"   => (SynthData.salesMulti(spark, rows, seed), "price_cents")
      case "tpch"    => (SynthData.lineitemMulti(spark, rows, seed), "quantity")
      case "osm"     => (SynthData.osmMulti(spark, rows, seed), "osm_id")
      case "perfmon" => (SynthData.perfmonMulti(spark, rows, seed), "cpu")
      case other => throw new IllegalArgumentException(s"unknown dataset $other")
    }
    val store = ColumnStore.fromDataFrame(df, df.columns.toSeq)
    Dataset(name, store, store.dimIndex(aggCol))
  }

  /** Load at the default bench scale, with `load`'s default seed. */
  def loadBench(spark: SparkSession, name: String): Dataset =
    load(spark, name, BenchRows(name))
}
