package repro

import org.apache.spark.sql.functions._

/** Sanity checks that the DuckDB oracle catches agreement and disagreement,
  * over the tpc-h lineitem analog.
  */
class OracleSmokeSpec extends SparkSpec {

  private lazy val li = SynthData.lineitemMulti(spark, 12000, seed = 1).cache()

  test("lineitem aggregate agrees with DuckDB") {
    val got = li
      .filter(col("quantity") <= 25)
      .agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(
      got,
      "SELECT count(*) AS cnt FROM lineitem WHERE CAST(quantity AS BIGINT) <= 25",
      "lineitem" -> li)
  }

  test("oracle catches a wrong result") {
    val wrong = li.agg((count(lit(1)) + 1).as("cnt"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, "SELECT count(*) AS cnt FROM lineitem", "lineitem" -> li)
    }
  }

  test("oracle enforces aligned column names") {
    val got = li.agg(count(lit(1)).as("mislabeled"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(got, "SELECT count(*) AS cnt FROM lineitem", "lineitem" -> li)
    }
  }
}
