package repro.model

import scala.util.Random

/** CART regression tree with variance-reduction splits.
  *
  * Substrate for the cost model's weight predictors (paper §4.1.1 uses
  * SciPy's random forest; no Python is available here, so the learner is
  * implemented from scratch — see DESIGN.md substitutions).
  */
final class RegressionTree private (
    featureIdx: Array[Int],    // -1 marks a leaf
    threshold: Array[Double],
    leftChild: Array[Int],
    rightChild: Array[Int],
    value: Array[Double]
) extends Serializable {
  /** Predict a single example. */
  def predict(x: Array[Double]): Double = {
    var node = 0
    while (featureIdx(node) >= 0) {
      node = if (x(featureIdx(node)) <= threshold(node)) leftChild(node) else rightChild(node)
    }
    value(node)
  }

  def numNodes: Int = featureIdx.length
}

object RegressionTree {

  /** Fit a tree on rows `idx` of `(xs, ys)`, trying √d (rounded up) random
    * features per split.
    */
  def fit(
      xs: Array[Array[Double]],
      ys: Array[Double],
      idx: Array[Int],
      maxDepth: Int,
      minLeaf: Int,
      rng: Random
  ): RegressionTree = {
    val d = xs(0).length
    val mtry = math.max(1, math.ceil(math.sqrt(d)).toInt)

    val fIdx = scala.collection.mutable.ArrayBuffer[Int]()
    val thr = scala.collection.mutable.ArrayBuffer[Double]()
    val lc = scala.collection.mutable.ArrayBuffer[Int]()
    val rc = scala.collection.mutable.ArrayBuffer[Int]()
    val vl = scala.collection.mutable.ArrayBuffer[Double]()

    def newNode(): Int = { fIdx += -1; thr += 0.0; lc += -1; rc += -1; vl += 0.0; fIdx.length - 1 }

    def mean(rows: Array[Int]): Double = {
      var s = 0.0; var i = 0
      while (i < rows.length) { s += ys(rows(i)); i += 1 }
      s / rows.length
    }

    def grow(node: Int, rows: Array[Int], depth: Int): Unit = {
      vl(node) = mean(rows)
      if (depth >= maxDepth || rows.length < 2 * minLeaf) return
      // best split among a random feature subset
      var bestF = -1; var bestT = 0.0; var bestScore = Double.MaxValue
      val feats = rng.shuffle((0 until d).toList).take(mtry)
      for (f <- feats) {
        val sortedRows = rows.sortBy(r => xs(r)(f))
        // prefix sums of y and y^2 for O(1) variance of each split
        val k = sortedRows.length
        val ps = new Array[Double](k + 1)
        val ps2 = new Array[Double](k + 1)
        var i = 0
        while (i < k) {
          val y = ys(sortedRows(i))
          ps(i + 1) = ps(i) + y; ps2(i + 1) = ps2(i) + y * y
          i += 1
        }
        i = minLeaf
        while (i <= k - minLeaf) {
          val xa = xs(sortedRows(i - 1))(f)
          val xb = xs(sortedRows(i))(f)
          if (xa != xb) {
            val lSse = ps2(i) - ps(i) * ps(i) / i
            val rSse = (ps2(k) - ps2(i)) - {
              val s = ps(k) - ps(i); s * s / (k - i)
            }
            val score = lSse + rSse
            if (score < bestScore) { bestScore = score; bestF = f; bestT = (xa + xb) / 2.0 }
          }
          i += 1
        }
      }
      if (bestF < 0) return
      val (l, r) = rows.partition(row => xs(row)(bestF) <= bestT)
      if (l.isEmpty || r.isEmpty) return
      fIdx(node) = bestF; thr(node) = bestT
      val ln = newNode(); val rn = newNode()
      lc(node) = ln; rc(node) = rn
      grow(ln, l, depth + 1)
      grow(rn, r, depth + 1)
    }

    val root = newNode()
    grow(root, idx, 0)
    new RegressionTree(fIdx.toArray, thr.toArray, lc.toArray, rc.toArray, vl.toArray)
  }
}

/** Bagged random forest regressor (bootstrap rows + random feature subsets). */
final class RandomForest private (trees: Array[RegressionTree]) extends Serializable {

  /** Mean prediction over all trees. */
  def predict(x: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < trees.length) { s += trees(i).predict(x); i += 1 }
    s / trees.length
  }

  def numTrees: Int = trees.length
}

object RandomForest {

  /** Fit `numTrees` bootstrap trees. Deterministic in `seed`. */
  def fit(
      xs: Array[Array[Double]],
      ys: Array[Double],
      numTrees: Int = 40,
      maxDepth: Int = 8,
      minLeaf: Int = 3,
      seed: Long = 17
  ): RandomForest = {
    require(xs.length == ys.length && xs.nonEmpty, "bad training data")
    val rng = new Random(seed)
    val n = xs.length
    val trees = Array.tabulate(numTrees) { _ =>
      val boot = Array.fill(n)(rng.nextInt(n))
      RegressionTree.fit(xs, ys, boot, maxDepth, minLeaf, rng)
    }
    new RandomForest(trees)
  }
}
