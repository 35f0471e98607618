package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.tables.TableGen

/** spark-submit entrypoint reproducing paper Table 1 (dataset and query
  * characteristics). Usage: `spark-submit --class repro.jobs.Table1Job <jar>`.
  */
object Table1Job {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("flood-table1").getOrCreate()
    println("Table 1: dataset and query characteristics")
    println(TableGen.table1(spark))
    spark.stop()
  }
}
