package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic analogs of the paper's four evaluation datasets (sales,
  * tpc-h lineitem, osm, perfmon — see DESIGN.md "Substitutions"). All columns
  * are 64-bit integers, as in the paper's column store (floats scaled by a
  * power of ten). Generators are deterministic in (rows, seed, number of
  * partitions), so the core engine, Spark and the DuckDB oracle see identical
  * input.
  */
object SynthData {

  /** Sales-like data (6 dims, fairly uniform — flattening should be ~neutral,
    * paper §7.4). Mimics an order-line table from a commercial sales DB.
    */
  def salesMulti(spark: SparkSession, rows: Long, seed: Long = 11): DataFrame = {
    import spark.implicits._
    spark.range(rows).select(
      (rand(seed)     * 1000000).cast(LongType)        as "order_id",
      (rand(seed + 1) * 50000).cast(LongType)          as "customer_id",
      (rand(seed + 2) * 5000).cast(LongType)           as "product_id",
      (rand(seed + 3) * 100 + 1).cast(LongType)        as "quantity",
      (rand(seed + 4) * 99900 + 100).cast(LongType)    as "price_cents",
      (rand(seed + 5) * 1095).cast(LongType)           as "sale_day",
    )
  }

  /** TPC-H lineitem-like data (7 dims, fairly uniform, with a correlated
    * receiptdate = shipdate + small delta, as in real TPC-H).
    */
  def lineitemMulti(spark: SparkSession, rows: Long, seed: Long = 12): DataFrame = {
    import spark.implicits._
    val ship = (rand(seed + 5) * 2526).cast(LongType)
    spark.range(rows).select(
      (rand(seed)     * (rows / 4 + 1)).cast(LongType) as "orderkey",
      (rand(seed + 1) * 200000).cast(LongType)         as "partkey",
      (rand(seed + 2) * 10000).cast(LongType)          as "suppkey",
      (rand(seed + 3) * 50 + 1).cast(LongType)         as "quantity",
      (rand(seed + 4) * 11).cast(LongType)             as "discount",
      ship                                             as "shipdate",
      (ship + (rand(seed + 6) * 30 + 1).cast(LongType)) as "receiptdate",
    )
  }

  /** OSM-like data (6 dims, heavily skewed: clustered GPS coordinates from a
    * mixture of Gaussians, recent-heavy timestamps, zipfian categories) —
    * flattening should matter here (paper: 20–30×).
    */
  def osmMulti(spark: SparkSession, rows: Long, seed: Long = 13): DataFrame = {
    import spark.implicits._
    // city clusters in the US Northeast bounding box, scaled by 1e4
    val cluster = (rand(seed + 2) * 5).cast(IntegerType)
    val latCenter = element_at(
      array(lit(40.71), lit(42.36), lit(39.95), lit(41.82), lit(43.66)), cluster + 1)
    val lonCenter = element_at(
      array(lit(-74.01), lit(-71.06), lit(-75.17), lit(-71.41), lit(-70.26)), cluster + 1)
    spark.range(rows).select(
      $"id"                                            as "osm_id",
      // timestamp: exponentially recent-heavy over ~10 years of seconds
      (lit(315360000L) - (-log(rand(seed)) * 40000000).cast(LongType))
        .cast(LongType)                                as "ts",
      ((latCenter + randn(seed + 3) * 0.35) * 10000).cast(LongType) as "lat",
      ((lonCenter + randn(seed + 4) * 0.45) * 10000).cast(LongType) as "lon",
      (pow(rand(seed + 5), 3.0) * 4).cast(LongType)    as "rec_type",
      (pow(rand(seed + 6), 4.0) * 100).cast(LongType)  as "category",
    )
  }

  /** Perfmon-like data (6 dims, non-uniform and often highly skewed metrics
    * from machine monitoring logs).
    */
  def perfmonMulti(spark: SparkSession, rows: Long, seed: Long = 14): DataFrame = {
    import spark.implicits._
    spark.range(rows).select(
      (rand(seed) * 31536000L).cast(LongType)                      as "log_ts",
      (pow(rand(seed + 1), 2.5) * 500).cast(LongType)              as "machine",
      (least(lit(10000.0), -log(rand(seed + 2)) * 1500)).cast(LongType) as "cpu",
      (exp(randn(seed + 3) * 1.0 + 7.0)).cast(LongType)            as "mem_mb",
      (when(rand(seed + 4) < 0.9, 0.0)
        .otherwise(-log(rand(seed + 5)) * 800)).cast(LongType)     as "swap_mb",
      (least(lit(6400.0), -log(rand(seed + 6)) * 400)).cast(LongType) as "loadavg",
    )
  }
}
