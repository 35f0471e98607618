package repro.spark

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, SynthData}
import repro.core.{CdfFlattening, FloodIndex, Layout}
import repro.opt.{Calibration, LayoutOptimizer}
import repro.store.ColumnStore
import repro.workload.{Dataset, Workloads}

class FloodSparkSpec extends SparkSpec {

  private lazy val df = SynthData.lineitemMulti(spark, 20000, seed = 5).cache()

  private lazy val layout = FloodSpark.learnLayout(
    df,
    gridDims = Seq("shipdate", "quantity", "discount"),
    cols = Seq(8, 4, 4),
    sortDim = "receiptdate")

  private lazy val laidOut = FloodSpark.applyLayout(df, layout).cache()

  test("layout preserves every row exactly once") {
    assert(laidOut.count() == df.count())
    val before = df.agg(sum(col("quantity"))).head.getLong(0)
    val after = laidOut.agg(sum(col("quantity"))).head.getLong(0)
    assert(before == after)
  }

  test("flood_cell is within [0, numCells)") {
    val mm = laidOut.agg(min(col("flood_cell")), max(col("flood_cell"))).head
    assert(mm.getLong(0) >= 0L)
    assert(mm.getLong(1) < layout.layout.numCells)
  }

  test("rows are sorted by (flood_cell, sortDim) within each partition") {
    import spark.implicits._
    val ok = laidOut
      .select(col("flood_cell"), col("receiptdate"), spark_partition_id().as("pid"))
      .as[(Long, Long, Int)]
      .mapPartitions { it =>
        var sorted = true
        var prev: (Long, Long) = (Long.MinValue, Long.MinValue)
        for ((c, v, _) <- it) {
          if (c < prev._1 || (c == prev._1 && v < prev._2)) sorted = false
          prev = (c, v)
        }
        Iterator(sorted)
      }
      .collect()
    assert(ok.forall(identity))
  }

  test("scan COUNT/SUM matches DuckDB oracle: grid-dim range filter") {
    val preds = Seq(("shipdate", 200L, 900L), ("quantity", 5L, 20L))
    val got = FloodSpark
      .scan(laidOut, layout, preds)
      .agg(count(lit(1)).as("cnt"),
        coalesce(sum(col("discount")), lit(0L)).as("total_discount"))
    Oracle.assertEquivalent(
      got,
      """SELECT count(*) AS cnt,
        |       COALESCE(SUM(CAST(discount AS BIGINT)), 0) AS total_discount
        |FROM lineitem
        |WHERE CAST(shipdate AS BIGINT) BETWEEN 200 AND 900
        |  AND CAST(quantity AS BIGINT) BETWEEN 5 AND 20""".stripMargin,
      "lineitem" -> df)
  }

  test("scan matches DuckDB oracle: sort-dim filter included") {
    val preds = Seq(("shipdate", 0L, 1500L), ("receiptdate", 100L, 800L))
    val got = FloodSpark
      .scan(laidOut, layout, preds)
      .agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(
      got,
      """SELECT count(*) AS cnt FROM lineitem
        |WHERE CAST(shipdate AS BIGINT) BETWEEN 0 AND 1500
        |  AND CAST(receiptdate AS BIGINT) BETWEEN 100 AND 800""".stripMargin,
      "lineitem" -> df)
  }

  test("scan matches DuckDB oracle: filter on a non-indexed dimension") {
    val preds = Seq(("suppkey", 0L, 500L))
    val got = FloodSpark.scan(laidOut, layout, preds).agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(
      got,
      "SELECT count(*) AS cnt FROM lineitem WHERE CAST(suppkey AS BIGINT) BETWEEN 0 AND 500",
      "lineitem" -> df)
  }

  test("scan matches DuckDB oracle: equality predicate") {
    val preds = Seq(("quantity", 7L, 7L))
    val got = FloodSpark.scan(laidOut, layout, preds)
      .agg(count(lit(1)).as("cnt"), coalesce(sum(col("partkey")), lit(0L)).as("pk_sum"))
    Oracle.assertEquivalent(
      got,
      """SELECT count(*) AS cnt, COALESCE(SUM(CAST(partkey AS BIGINT)), 0) AS pk_sum
        |FROM lineitem WHERE CAST(quantity AS BIGINT) = 7""".stripMargin,
      "lineitem" -> df)
  }

  test("grouped aggregation over the scan matches DuckDB") {
    val preds = Seq(("shipdate", 100L, 1200L), ("discount", 2L, 6L))
    val got = FloodSpark.scan(laidOut, layout, preds)
      .groupBy(col("discount").as("d"))
      .agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(
      got,
      """SELECT CAST(discount AS BIGINT) AS d, count(*) AS cnt FROM lineitem
        |WHERE CAST(shipdate AS BIGINT) BETWEEN 100 AND 1200
        |  AND CAST(discount AS BIGINT) BETWEEN 2 AND 6
        |GROUP BY 1""".stripMargin,
      "lineitem" -> df)
  }

  test("cell pruning reduces the cells touched (projection works)") {
    val narrow = Seq(("shipdate", 100L, 200L))
    assert(FloodSpark.cellsTouched(layout, narrow) < layout.layout.numCells)
    val all = FloodSpark.cellsTouched(layout, Seq.empty)
    assert(all == layout.layout.numCells)
  }

  test("prunePredicate keeps exactly the rows whose cells intersect") {
    val preds = Seq(("shipdate", 300L, 700L))
    val pruned = laidOut.filter(FloodSpark.prunePredicate(layout, preds))
    val full = laidOut.filter(col("shipdate").between(300L, 700L))
    // pruning is a superset of the true result, never a subset
    assert(pruned.count() >= full.count())
    assert(pruned.filter(col("shipdate").between(300L, 700L)).count() == full.count())
  }

  test("layout strides follow mixed radix") {
    assert(layout.layout.strides.toSeq == Seq(16L, 4L, 1L))
    assert(layout.layout.numCells == 128L)
  }

  // the same data as a core store, for the tests that share a layout with FloodIndex
  private lazy val ds = Dataset("tpch", ColumnStore.fromDataFrame(df, df.columns.toSeq), aggDim = 3)
  private lazy val flat = CdfFlattening.train(ds.store)

  test("one core layout drives both engines: each flood_cell holds the FloodIndex cell's rows") {
    val core = Layout(Array(5, 3, 4, 0, 1, 2, 6), Array(8, 4, 3, 1, 2, 1))
    val flood = new FloodIndex(ds.store, core, flat, ds.aggDim)
    val shared = FloodSpark.SparkLayout(ds.store.names.toSeq, core, flat)
    val sparkCounts = FloodSpark.applyLayout(df, shared).groupBy(col("flood_cell")).count()
      .collect().map(r => r.getLong(0).toInt -> r.getLong(1)).toMap
    val cells = flood.cellTable
    for (c <- 0 until core.numCells.toInt) {
      assert(sparkCounts.getOrElse(c, 0L) == (cells(c + 1) - cells(c)).toLong, s"cell $c")
    }
  }

  test("scan on a layout learned by LayoutOptimizer matches DuckDB") {
    val wl = Workloads.standard(ds, nTrain = 20, nTest = 5, seed = 9)
    val model = Calibration.calibrate(ds, wl.train.take(10), numLayouts = 3, seed = 10)
    val learned = LayoutOptimizer.optimize(ds, flat, wl.train, model, seed = 11).layout
    val shared = FloodSpark.SparkLayout(ds.store.names.toSeq, learned, flat)
    val preds = Seq(("shipdate", 300L, 1100L), ("discount", 3L, 8L), ("quantity", 10L, 30L))
    val got = FloodSpark.scan(FloodSpark.applyLayout(df, shared), shared, preds)
      .agg(count(lit(1)).as("cnt"), coalesce(sum(col("quantity")), lit(0L)).as("total"))
    Oracle.assertEquivalent(
      got,
      """SELECT count(*) AS cnt, COALESCE(SUM(CAST(quantity AS BIGINT)), 0) AS total
        |FROM lineitem
        |WHERE CAST(shipdate AS BIGINT) BETWEEN 300 AND 1100
        |  AND CAST(discount AS BIGINT) BETWEEN 3 AND 8
        |  AND CAST(quantity AS BIGINT) BETWEEN 10 AND 30""".stripMargin,
      "lineitem" -> df)
  }

  test("learnLayout on an empty DataFrame lays out and scans nothing") {
    val empty = df.limit(0)
    val l = FloodSpark.learnLayout(empty, Seq("shipdate", "quantity"), Seq(4, 4), "receiptdate")
    val laid = FloodSpark.applyLayout(empty, l)
    assert(laid.count() == 0L)
    val got = FloodSpark.scan(laid, l, Seq(("shipdate", 0L, 100L))).agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(
      got,
      "SELECT count(*) AS cnt FROM lineitem WHERE CAST(shipdate AS BIGINT) BETWEEN 0 AND 100",
      "lineitem" -> empty)
  }
}
