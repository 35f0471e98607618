package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.tables.TableGen
import repro.workload.Datasets

/** spark-submit entrypoint reproducing paper Table 3 (cost-model
  * robustness: layouts learned with models calibrated on each dataset,
  * evaluated on every dataset).
  */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("flood-table3").getOrCreate()
    println("Table 3: query time (ms) per (calibration dataset, target dataset)")
    println(TableGen.table3(spark, Datasets.BenchRows))
    spark.stop()
  }
}
