package repro.workload

import repro.SparkSpec
import repro.store.Scan

class WorkloadsSpec extends SparkSpec {

  private lazy val ds = Datasets.load(spark, "tpch", 20000, seed = 3)
  private lazy val wl = Workloads.standard(ds, nTrain = 40, nTest = 20, seed = 5)

  test("templates exist for all four datasets and reference valid dims") {
    for (name <- Datasets.Names) {
      val d = Datasets.load(spark, name, 500, seed = 2)
      val tpls = Workloads.templates(name)
      assert(tpls.nonEmpty)
      for (t <- tpls; dim <- t.dims) assert(dim >= 0 && dim < d.numDims, s"$name dim $dim")
    }
  }

  test("standard workload produces the requested sizes") {
    assert(wl.train.length == 40)
    assert(wl.test.length == 20)
  }

  test("queries carry at least one filter") {
    for (q <- wl.all) assert(q.filteredDims.nonEmpty)
  }

  test("average selectivity is near the 0.1% target (paper §7.3)") {
    val sels = wl.all.map(q => Scan.brute(ds.store, q)._1.toDouble / ds.numRows)
    val avg = sels.sum / sels.length
    assert(avg > 0.0001 && avg < 0.01, s"avg selectivity $avg")
  }

  test("train and test come from the same distribution (selectivity within 5x)") {
    def avgSel(qs: Array[repro.store.RangeQuery]) =
      qs.map(q => Scan.brute(ds.store, q)._1.toDouble / ds.numRows).sum / qs.length
    val a = avgSel(wl.train); val b = avgSel(wl.test)
    assert(a / b < 5 && b / a < 5, s"train=$a test=$b")
  }

  test("generation is deterministic in the seed") {
    val w1 = Workloads.standard(ds, nTrain = 10, nTest = 5, seed = 11)
    val w2 = Workloads.standard(ds, nTrain = 10, nTest = 5, seed = 11)
    for ((q1, q2) <- w1.all.zip(w2.all)) {
      assert(q1.lo.toSeq == q2.lo.toSeq && q1.hi.toSeq == q2.hi.toSeq)
    }
  }

  test("dimSelectivity: filtered dims < 1, never-filtered dims = 1") {
    val sel = Workloads.dimSelectivity(ds.store, wl.train)
    val filteredDims = wl.train.flatMap(_.filteredDims).toSet
    for (d <- 0 until ds.numDims) {
      if (filteredDims.contains(d)) assert(sel(d) < 1.0, s"dim $d")
      else assert(sel(d) == 1.0, s"dim $d")
    }
  }

  test("selectivityOrder puts a selective dim before a never-filtered dim") {
    val order = Workloads.selectivityOrder(ds.store, wl.train)
    assert(order.length == ds.numDims)
    assert(order.distinct.length == ds.numDims)
    val sel = Workloads.dimSelectivity(ds.store, wl.train)
    assert(sel(order.head) <= sel(order.last))
  }

  test("sortedColumns are sorted copies") {
    val sc = Workloads.sortedColumns(ds.store)
    for (d <- 0 until ds.numDims) {
      assert(sc(d).zip(sc(d).tail).forall { case (a, b) => a <= b })
      assert(sc(d).sorted.toSeq == ds.store.columns(d).sorted.toSeq)
    }
  }
}
