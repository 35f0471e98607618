package floodbench

import java.nio.file.{Files, Path, Paths}

import org.apache.spark.sql.SparkSession

/** Command-line entry of the benchmark:
  *
  * {{{
  * Main --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1] [--out <dir>]
  * }}}
  *
  * Prints a few `#`-prefixed lines describing the run (data checksum, pinned
  * and learned layouts, sample counts) and, as its last line, one JSON
  * object `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
  * the metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
  * The full record of the run, and the spans of a traced run, go to `--out`.
  */
object Main {

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean, out: Path)

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments near ${other.mkString(" ")}")
    }.toMap
    val known = Set("workload", "seed", "seconds", "trace", "out")
    require(kv.keySet.subsetOf(known), s"unknown option(s): ${(kv.keySet -- known).mkString(", ")}")
    Opts(
      workload = kv.getOrElse("workload", throw new IllegalArgumentException("--workload is required")),
      seed = kv.get("seed").map(_.toLong).getOrElse(1L),
      seconds = kv.get("seconds").map(_.toDouble).getOrElse(10.0),
      trace = kv.get("trace").exists(_ != "0"),
      out = Paths.get(kv.getOrElse("out", "results"))
    )
  }

  /** Spark in local mode with a fixed generation parallelism: `SynthData`
    * seeds `rand` per partition, so the data depend on the partition count,
    * never on how many cores the machine has.
    */
  def spark(scratch: Path): SparkSession = {
    val threads = math.max(1, math.min(4, Runtime.getRuntime.availableProcessors()))
    Files.createDirectories(scratch)
    SparkSession.builder
      .master(s"local[$threads]")
      .appName("floodbench")
      .config("spark.default.parallelism", Workloads.GenPartitions.toLong)
      .config("spark.sql.shuffle.partitions", Workloads.GenPartitions.toLong)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", scratch.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", scratch.resolve("spark-warehouse").toString)
      .getOrCreate()
  }

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val spec = Workloads.byName.getOrElse(opts.workload,
      throw new IllegalArgumentException(
        s"unknown workload ${opts.workload} (have ${Workloads.byName.keys.toSeq.sorted.mkString(", ")})"))
    val tracer = new Tracer(opts.trace)
    val report = Runner.run(spec, opts, tracer)
    val tag = s"${spec.name}-seed${opts.seed}-trace${if (opts.trace) 1 else 0}"
    Files.createDirectories(opts.out)
    Files.write(opts.out.resolve(s"$tag.json"), report.recordJson.getBytes("UTF-8"))
    if (opts.trace) tracer.write(opts.out.resolve(s"$tag.spans.jsonl"), report.querySpans)
    report.info.foreach(l => println(s"# $l"))
    println(report.resultJson)
    System.exit(0)
  }
}
