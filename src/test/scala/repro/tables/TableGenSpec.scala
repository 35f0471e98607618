package repro.tables

import repro.SparkSpec
import repro.baselines.FullScan
import repro.opt.Calibration
import repro.workload.{Datasets, Workloads}

/** Smoke tests of the table harness at tiny scale (the real numbers come
  * from the bench suites).
  */
class TableGenSpec extends SparkSpec {

  private lazy val tinyRows = Map("sales" -> 4000, "tpch" -> 4000, "osm" -> 4000, "perfmon" -> 4000)

  test("table1 renders every dataset column") {
    val t = TableGen.table1(spark, tinyRows)
    for (n <- Seq("records", "queries", "dimensions", "size")) assert(t.contains(n))
  }

  test("measure aggregates metrics consistently") {
    val ds = Datasets.load(spark, "sales", 3000, seed = 21)
    val wl = Workloads.standard(ds, nTrain = 10, nTest = 10, seed = 22)
    val m = TableGen.measure(new FullScan(ds.store, ds.aggDim), wl.test)
    assert(m.name == "Full Scan")
    assert(m.so >= 1.0)
    assert(m.ttMs > 0)
    assert(math.abs(m.ttMs - (m.stMs + m.itMs)) < 1e-9)
  }

  test("tunePageSize returns one of the candidate builds") {
    val ds = Datasets.load(spark, "sales", 3000, seed = 23)
    val wl = Workloads.standard(ds, nTrain = 8, nTest = 4, seed = 24)
    val idx = TableGen.tunePageSize(
      ps => new repro.baselines.HyperOctree(ds.store, ps, ds.aggDim), wl.train, Seq(256, 1024))
    assert(idx.name == "Hyperoctree")
  }

  test("runDataset produces a row for every index including Flood") {
    val ds = Datasets.load(spark, "sales", 3000, seed = 25)
    val model = Calibration.calibrate(ds, Workloads.standard(ds).train, numLayouts = 3)
    val run = TableGen.runDataset(ds, model)
    val names = run.metrics.map(_.name)
    for (n <- Seq("Full Scan", "Clustered", "Z Order", "UB tree", "Hyperoctree",
                  "K-d tree", "Grid File", "R* tree", "Flood"))
      assert(names.contains(n), s"missing $n in $names")
    assert(run.floodLearnSec > 0)
    assert(run.floodLoadSec > 0)
    val table = TableGen.table2(Seq(run))
    assert(table.contains("sales") && table.contains("Flood"))
    val t4 = TableGen.table4(Seq(run))
    assert(t4.contains("Flood Learning") && t4.contains("K-d tree"))
  }
}
