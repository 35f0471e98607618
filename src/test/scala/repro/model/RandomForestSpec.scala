package repro.model

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

class RandomForestSpec extends AnyFunSuite {

  private def mse(preds: Seq[Double], ys: Seq[Double]): Double =
    preds.zip(ys).map { case (p, y) => (p - y) * (p - y) }.sum / ys.length

  test("fits a piecewise-constant function") {
    val rng = new Random(31)
    val xs = Array.fill(400)(Array(rng.nextDouble() * 10))
    val ys = xs.map(x => if (x(0) < 5) 1.0 else 10.0)
    val rf = RandomForest.fit(xs, ys, numTrees = 20, maxDepth = 4)
    assert(math.abs(rf.predict(Array(2.0)) - 1.0) < 1.0)
    assert(math.abs(rf.predict(Array(8.0)) - 10.0) < 1.0)
  }

  test("beats the constant-mean predictor on a nonlinear target") {
    val rng = new Random(32)
    val xs = Array.fill(600)(Array(rng.nextDouble() * 4, rng.nextDouble() * 4))
    val ys = xs.map(x => math.sin(x(0)) * x(1) + 0.05 * rng.nextGaussian())
    val rf = RandomForest.fit(xs, ys, numTrees = 40, maxDepth = 8)
    val mean = ys.sum / ys.length
    val rfMse = mse(xs.map(rf.predict).toSeq, ys.toSeq)
    val meanMse = mse(ys.map(_ => mean).toSeq, ys.toSeq)
    assert(rfMse < meanMse / 2, s"rf=$rfMse mean=$meanMse")
  }

  test("captures feature interactions (the paper's motivation for forests over linear)") {
    val rng = new Random(33)
    val xs = Array.fill(800)(Array(rng.nextDouble(), rng.nextDouble()))
    val ys = xs.map(x => if (x(0) > 0.5 ^ x(1) > 0.5) 5.0 else 1.0) // XOR — not linear
    val rf = RandomForest.fit(xs, ys, numTrees = 40, maxDepth = 8, minLeaf = 2)
    val preds = xs.map(rf.predict)
    assert(mse(preds.toSeq, ys.toSeq) < 1.5)
  }

  test("deterministic in the seed") {
    val rng = new Random(34)
    val xs = Array.fill(200)(Array(rng.nextDouble()))
    val ys = xs.map(x => x(0) * 3)
    val a = RandomForest.fit(xs, ys, seed = 99)
    val b = RandomForest.fit(xs, ys, seed = 99)
    for (x <- xs.take(20)) assert(a.predict(x) == b.predict(x))
  }

  test("handles constant targets") {
    val xs = Array.fill(50)(Array(1.0, 2.0))
    val ys = Array.fill(50)(7.5)
    val rf = RandomForest.fit(xs, ys, numTrees = 5)
    assert(rf.predict(Array(1.0, 2.0)) == 7.5)
  }

  test("single regression tree predicts leaf means") {
    val xs = Array(Array(0.0), Array(1.0), Array(2.0), Array(3.0))
    val ys = Array(0.0, 0.0, 10.0, 10.0)
    val t = RegressionTree.fit(xs, ys, Array(0, 1, 2, 3), maxDepth = 2, minLeaf = 1,
      new Random(1))
    assert(t.predict(Array(0.5)) == 0.0)
    assert(t.predict(Array(2.5)) == 10.0)
  }

  test("tree respects maxDepth") {
    val rng = new Random(35)
    val xs = Array.fill(300)(Array(rng.nextDouble()))
    val ys = xs.map(x => x(0))
    val shallow = RegressionTree.fit(xs, ys, Array.range(0, 300), maxDepth = 1, minLeaf = 1,
      new Random(2))
    assert(shallow.numNodes <= 3)
  }

  test("rejects empty training data") {
    intercept[IllegalArgumentException] {
      RandomForest.fit(Array.empty[Array[Double]], Array.empty[Double])
    }
  }
}
