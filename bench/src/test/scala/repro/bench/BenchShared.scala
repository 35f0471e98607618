package repro.bench

import org.apache.spark.sql.SparkSession
import repro.tables.TableGen

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

/** Shared state for the bench suites: the per-dataset runs under the
  * one-time machine calibration (used by both Table 2 and Table 4, like in
  * the paper). All suites run in one forked JVM (`parallelExecution := false`),
  * so these lazies compute once.
  */
object BenchShared {

  lazy val spark: SparkSession = repro.SparkSpec.shared

  /** Full Table-2/Table-4 runs over all four datasets at bench scale. */
  lazy val runs: Seq[TableGen.DatasetRun] = TableGen.runAll(spark)

  /** Persist a rendered table for EXPERIMENTS.md. The bench JVM's working
    * directory is the `bench/` subproject, so anchor at the repo root.
    */
  def save(name: String, content: String): Unit = {
    val cwd = Paths.get("").toAbsolutePath
    val root = if (cwd.getFileName != null && cwd.getFileName.toString == "bench") cwd.getParent else cwd
    val dir = root.resolve("bench_results")
    Files.createDirectories(dir)
    Files.write(dir.resolve(name), content.getBytes(StandardCharsets.UTF_8))
    println(content)
  }
}
