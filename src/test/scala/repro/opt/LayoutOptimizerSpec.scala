package repro.opt

import repro.SparkSpec
import repro.core.{CdfFlattening, FloodIndex, Layout}
import repro.store.{RangeQuery, Scan}
import repro.workload.{Datasets, Workloads}

class LayoutOptimizerSpec extends SparkSpec {

  private lazy val ds = Datasets.load(spark, "tpch", 20000, seed = 4)
  private lazy val wl = Workloads.standard(ds, nTrain = 30, nTest = 15, seed = 6)
  private lazy val flat = CdfFlattening.train(ds.store)
  private lazy val model = Calibration.calibrate(ds, wl.train.take(15), numLayouts = 4, seed = 8)

  test("calibration produces weight training examples for every (layout, query) pair") {
    val ex = Calibration.collectExamples(ds, wl.train.take(10), numLayouts = 3, seed = 9)
    assert(ex.size == 30)
    assert(ex.forall(e => e.wp >= 0 && e.wr >= 0 && e.ws >= 0))
    assert(ex.forall(e => e.features.cellsInRect >= 1))
  }

  test("calibrated model predicts positive times") {
    val eval = new LayoutEvaluator(ds, flat, wl.train, 2000, 10)
    val l = Layout.uniform(Array.range(0, ds.numDims), 256)
    assert(eval.objective(l, model) > 0)
  }

  test("optimize returns a valid layout over all dimensions") {
    val r = LayoutOptimizer.optimize(ds, flat, wl.train, model, seed = 11)
    assert(r.layout.d == ds.numDims)
    assert(r.layout.order.sorted.toSeq == (0 until ds.numDims))
    assert(r.layout.numCells <= LayoutOptimizer.MaxTotalCells)
    assert(r.predictedNanos > 0)
    assert(r.learnNanos > 0)
  }

  test("learned layout's objective is no worse than the uniform default") {
    val r = LayoutOptimizer.optimize(ds, flat, wl.train, model, seed = 12)
    val eval = new LayoutEvaluator(ds, flat, wl.train, 4000, 12)
    val default = Layout.uniform(
      Workloads.selectivityOrder(ds.store, wl.train), targetCells = 4096)
    assert(eval.objective(r.layout, model) <= eval.objective(default, model) * 1.001)
  }

  test("learned layout answers queries correctly") {
    val r = LayoutOptimizer.optimize(ds, flat, wl.train, model, seed = 13)
    val flood = new FloodIndex(ds.store, r.layout, flat, ds.aggDim)
    for (q <- wl.test) {
      val (c, s) = Scan.brute(ds.store, q, ds.aggDim)
      val res = flood.query(q)
      assert(res.count == c && res.sum == s)
    }
  }

  test("learned layout beats a deliberately bad layout on real measured time") {
    val r = LayoutOptimizer.optimize(ds, flat, wl.train, model, seed = 14)
    val good = new FloodIndex(ds.store, r.layout, flat, ds.aggDim)
    // bad: single cell, sorted by the least selective dimension
    val badOrder = Workloads.selectivityOrder(ds.store, wl.train).reverse
    val bad = new FloodIndex(ds.store, Layout(badOrder, Array.fill(ds.numDims - 1)(1)), flat, ds.aggDim)
    def total(idx: FloodIndex): Long = {
      for (q <- wl.test) idx.query(q)
      wl.test.map(idx.query(_).scanned).sum
    }
    assert(total(good) < total(bad), "learned layout should scan fewer points")
  }

  test("evaluator feature estimates are in sane ranges") {
    val eval = new LayoutEvaluator(ds, flat, wl.train, 2000, 15)
    val l = Layout.uniform(Array.range(0, ds.numDims), 1024)
    for (qi <- wl.train.indices.take(10)) {
      val f = eval.features(l, qi)
      assert(f.cellsInRect >= 1 && f.cellsInRect <= l.numCells)
      assert(f.ns >= 1 && f.ns <= ds.numRows * 2)
      assert(f.fracExact >= 0 && f.fracExact <= 1)
      assert(f.nonEmptyCells >= 1)
    }
  }

  test("inverted queries give finite features with N_c = 0, estimated and measured") {
    val inverted = Array.tabulate(ds.numDims) { dim =>
      val q = RangeQuery(wl.train(dim).lo.clone(), wl.train(dim).hi.clone())
      q.lo(dim) = 10; q.hi(dim) = 5
      q
    }
    val eval = new LayoutEvaluator(ds, flat, inverted, 2000, 17)
    val l = Layout.uniform(Array.range(0, ds.numDims), 1024)
    val estimated = inverted.indices.map(eval.features(l, _))
    val measured = Calibration.collectExamples(ds, inverted, numLayouts = 2, seed = 18).map(_.features)
    for (f <- estimated ++ measured) {
      assert(f.cellsInRect == 0, f)
      assert(f.toArray.forall(x => !x.isNaN && !x.isInfinite), f)
    }
  }

  test("estimated Ns tracks measured Ns within an order of magnitude") {
    val eval = new LayoutEvaluator(ds, flat, wl.train, 4000, 16)
    val l = Layout(Workloads.selectivityOrder(ds.store, wl.train), Array(8, 8, 4, 2, 1, 1))
    val flood = new FloodIndex(ds.store, l, flat, ds.aggDim)
    var estSum = 0.0; var measSum = 0.0
    for (qi <- wl.train.indices) {
      estSum += eval.features(l, qi).ns
      measSum += flood.queryWithStats(wl.train(qi)).scanned.toDouble
    }
    val ratio = estSum / math.max(1.0, measSum)
    assert(ratio > 0.1 && ratio < 10, s"aggregate Ns estimate off by $ratio")
  }
}
