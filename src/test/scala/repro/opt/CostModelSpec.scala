package repro.opt

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.model.RandomForest
import repro.workload.Dataset

import scala.util.Random

class CostModelSpec extends AnyFunSuite {

  private def constForest(v: Double): RandomForest = {
    val xs = Array.fill(20)(Array(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    RandomForest.fit(xs, Array.fill(20)(v), numTrees = 3)
  }

  private def feat(nc: Double, ns: Double, refined: Boolean) = CostFeatures(
    cellsInRect = nc, nonEmptyCells = nc, ns = ns, totalCells = 1000,
    avgCellSize = 100, numFilteredDims = 2, avgVisitedPerCell = ns / math.max(1, nc),
    fracExact = 0.5, refined = refined)

  test("feature vector has stable arity") {
    assert(feat(10, 100, refined = true).toArray.length == 8)
  }

  test("Eq.1 decomposition: time = wp*Nc + wr*Nc + ws*Ns") {
    val m = new CostModel(constForest(2.0), constForest(3.0), constForest(0.5))
    val t = m.predictNanos(feat(nc = 10, ns = 100, refined = true))
    assert(math.abs(t - (2.0 * 10 + 3.0 * 10 + 0.5 * 100)) < 1e-6)
  }

  test("refinement weight only applies when the sort dim is filtered") {
    val m = new CostModel(constForest(2.0), constForest(3.0), constForest(0.5))
    val t = m.predictNanos(feat(nc = 10, ns = 100, refined = false))
    assert(math.abs(t - (2.0 * 10 + 0.5 * 100)) < 1e-6)
  }

  test("negative weight predictions are clamped to zero") {
    val m = new CostModel(constForest(-5.0), constForest(-5.0), constForest(1.0))
    val t = m.predictNanos(feat(nc = 10, ns = 100, refined = true))
    assert(t == 100.0)
  }

  test("prediction grows with scanned points under fixed weights") {
    val m = new CostModel(constForest(1.0), constForest(1.0), constForest(1.0))
    assert(m.predictNanos(feat(10, 1000, refined = false)) >
      m.predictNanos(feat(10, 100, refined = false)))
  }

  test("analytic model matches its fixed weights") {
    val a = new AnalyticCostModel(2.0, 3.0, 0.5)
    assert(a.predictNanos(feat(10, 100, refined = true)) == 2.0 * 10 + 3.0 * 10 + 0.5 * 100)
    assert(a.predictNanos(feat(10, 100, refined = false)) == 2.0 * 10 + 0.5 * 100)
  }

  test("a calibrated model round-trips through Java serialization") {
    val store = TestData.randomStore(2000, 3, seed = 112)
    val rng = new Random(113)
    val model = Calibration.calibrate(Dataset("random", store, 0),
      Array.fill(12)(TestData.randomQuery(store, rng)), numLayouts = 2)
    val bytes = new ByteArrayOutputStream()
    val out = new ObjectOutputStream(bytes)
    out.writeObject(model); out.close()
    val back = new ObjectInputStream(new ByteArrayInputStream(bytes.toByteArray)).readObject().asInstanceOf[CostModel]
    for (_ <- 0 until 50) {
      val f = feat(nc = 1 + rng.nextInt(5000), ns = rng.nextInt(100000), refined = rng.nextBoolean())
        .copy(totalCells = 1 + rng.nextInt(8192), fracExact = rng.nextDouble())
      assert(back.predictNanos(f) == model.predictNanos(f))
    }
  }

  test("random layouts are valid and vary") {
    val rng = new Random(111)
    val seen = scala.collection.mutable.Set[String]()
    for (_ <- 0 until 30) {
      val l = Calibration.randomLayout(5, rng)
      assert(l.d == 5)
      assert(l.numCells >= 1 && l.numCells <= (1L << 20))
      seen += l.toString
    }
    assert(seen.size > 10, "layouts should vary")
  }
}
