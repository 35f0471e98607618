package repro

import org.apache.spark.sql.functions._

/** Checks on the synthetic evaluation datasets (DESIGN.md dataset
  * substitutions).
  */
class SynthDataSpec extends SparkSpec {

  test("multi-dimensional generators are deterministic in the seed") {
    val a = SynthData.perfmonMulti(spark, 2000, seed = 5).agg(sum(col("cpu"))).head.getLong(0)
    val b = SynthData.perfmonMulti(spark, 2000, seed = 5).agg(sum(col("cpu"))).head.getLong(0)
    assert(a == b)
  }

  test("sales columns stay in their documented domains") {
    val df = SynthData.salesMulti(spark, 3000, seed = 6)
    val r = df.agg(
      min(col("quantity")), max(col("quantity")),
      min(col("sale_day")), max(col("sale_day"))).head
    assert(r.getLong(0) >= 1L && r.getLong(1) <= 101L)
    assert(r.getLong(2) >= 0L && r.getLong(3) <= 1095L)
  }

  test("osm record types are heavily skewed toward type 0") {
    val df = SynthData.osmMulti(spark, 5000, seed = 7)
    val zero = df.filter(col("rec_type") === 0).count()
    assert(zero > 2500, s"type-0 count $zero")
  }
}
