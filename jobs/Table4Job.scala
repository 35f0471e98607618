package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.tables.TableGen

/** spark-submit entrypoint reproducing paper Table 4 (index creation time:
  * Flood learning + loading vs every baseline's build time).
  */
object Table4Job {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("flood-table4").getOrCreate()
    val runs = TableGen.runAll(spark)
    println("Table 4: index creation time (seconds)")
    println(TableGen.table4(runs))
    spark.stop()
  }
}
