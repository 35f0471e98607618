package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.tables.TableGen

/** spark-submit entrypoint reproducing paper Table 2 (per-index performance
  * breakdown: SO, TPS, ST, IT, TT on all four datasets).
  */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("flood-table2").getOrCreate()
    val runs = TableGen.runAll(spark)
    println("Table 2: performance breakdown")
    println(TableGen.table2(runs))
    spark.stop()
  }
}
