package repro.model

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData

import scala.util.Random

class RmiSpec extends AnyFunSuite {

  private val uniform = Array.tabulate(10000)(i => i.toLong * 3)
  private val dup = TestData.sortedWithDuplicates(5000, 11)
  private val skewed = {
    val rng = new Random(12)
    val a = Array.fill(5000)((math.pow(rng.nextDouble(), 5) * 1e9).toLong)
    java.util.Arrays.sort(a); a
  }

  /** `Rmi.predict` with the expert found by linear walks from the root's
    * guess, over the experts `Rmi.build` makes, reading the spline anchors
    * from the sorted array itself: the reference for the exponential-search
    * correction and for the model's stored expert boundaries.
    */
  private def walkPredict(sorted: Array[Long], leaves: Int)(v: Long): Int = {
    val n = sorted.length
    val k = math.max(1, math.min(leaves, n))
    val starts = Array.tabulate(k + 1)(e => ((e.toLong * n) / k).toInt)
    val startVals = Array.tabulate(k)(e => sorted(starts(e)))
    val (vMin, vMax) = (sorted(0), sorted(n - 1))
    if (v <= vMin) return 0
    if (v >= vMax) return n - 1
    var e = ((v.toDouble - vMin.toDouble) * (k.toDouble / (vMax.toDouble - vMin.toDouble))).toInt
    e = math.max(0, math.min(k - 1, e))
    while (e > 0 && v < startVals(e)) e -= 1
    while (e < k - 1 && v >= startVals(e + 1)) e += 1
    val i0 = starts(e)
    val i1 = math.min(n - 1, starts(e + 1))
    val (v0, v1) = (sorted(i0), sorted(i1))
    val p =
      if (v1 == v0) i0
      else i0 + ((v.toDouble - v0.toDouble) / (v1.toDouble - v0.toDouble) * (i1 - i0)).toInt
    math.max(i0, math.min(i1, p))
  }

  test("the expert search gives the linear walk's prediction, with many experts per value") {
    val rng = new Random(16)
    // 11 and 50 distinct values (tpch discount and quantity) with n/256
    // experts as CdfFlattening.train builds them, the skewed, uniform and
    // duplicate-heavy arrays, and 1- and 2-row arrays
    val few = Seq(11, 50).map { k =>
      val a = Array.fill(100000)(rng.nextInt(k).toLong + 1)
      java.util.Arrays.sort(a); a
    }
    val tiny = Seq(Array(42L), Array(5L, 5L), Array(-3L, 10L))
    for (a <- few ++ Seq(skewed, uniform, dup) ++ tiny) {
      val leaves = math.max(8, a.length / 256)
      val rmi = Rmi.build(a, leaves)
      val ref = walkPredict(a, leaves) _
      val (lo, hi) = (a.head - 2, a.last + 2)
      val vs = (lo to math.min(hi, lo + 200)) ++ Seq.fill(5000)(lo + rng.nextLong(hi - lo + 1)) ++
        Seq(Long.MinValue, Long.MaxValue)
      for (v <- vs) assert(rmi.predict(v) == ref(v), s"v=$v")
    }
  }

  test("predict is within bounds") {
    val rmi = Rmi.build(uniform)
    for (v <- Seq(-100L, 0L, 1500L, 29997L, 50000L)) {
      val p = rmi.predict(v)
      assert(p >= 0 && p < uniform.length)
    }
  }

  test("predict is monotone non-decreasing on uniform data") {
    val rmi = Rmi.build(uniform)
    var prev = -1
    for (v <- -10L to 30100L by 7) {
      val p = rmi.predict(v)
      assert(p >= prev, s"monotonicity broken at v=$v: $p < $prev")
      prev = p
    }
  }

  test("predict is monotone on skewed data") {
    val rmi = Rmi.build(skewed)
    var prev = -1
    var v = -5L
    while (v < skewed.last + 10) {
      val p = rmi.predict(v)
      assert(p >= prev, s"monotonicity broken at v=$v")
      prev = p
      v += math.max(1, skewed.last / 997)
    }
  }

  test("predict is monotone on duplicate-heavy data") {
    val rmi = Rmi.build(dup, leaves = 32)
    var prev = -1
    for (v <- dup.head - 2 to dup.last + 2) {
      val p = rmi.predict(v)
      assert(p >= prev)
      prev = p
    }
  }

  test("cdf is in [0,1] and monotone") {
    val rmi = Rmi.build(skewed)
    var prev = 0.0
    var v = skewed.head - 10
    while (v <= skewed.last + 10) {
      val c = rmi.cdf(v)
      assert(c >= 0.0 && c <= 1.0)
      assert(c >= prev - 1e-12)
      prev = c
      v += math.max(1, (skewed.last - skewed.head) / 1000)
    }
    assert(rmi.cdf(skewed.head - 1) == 0.0)
    assert(rmi.cdf(skewed.last) == 1.0)
  }

  test("lowerBound exact on uniform data") {
    val rmi = Rmi.build(uniform)
    val rng = new Random(13)
    for (_ <- 0 until 500) {
      val v = rng.nextLong(30010) - 5
      assert(SearchUtil.lowerBound(uniform, v, rmi.predict(v)) == SearchUtil.binaryLowerBound(uniform, v, 0, uniform.length))
    }
  }

  test("upperBound exact on duplicates") {
    val rmi = Rmi.build(dup, leaves = 16)
    val rng = new Random(14)
    for (_ <- 0 until 500) {
      val v = dup(rng.nextInt(dup.length)) + rng.nextInt(3) - 1
      assert(SearchUtil.upperBound(dup, v, rmi.predict(v)) == SearchUtil.binaryUpperBound(dup, v, 0, dup.length))
    }
  }

  test("prediction error is small on uniform data") {
    val rmi = Rmi.build(uniform, leaves = 64)
    val rng = new Random(15)
    var errSum = 0L
    val trials = 1000
    for (_ <- 0 until trials) {
      val i = rng.nextInt(uniform.length)
      errSum += math.abs(rmi.predict(uniform(i)) - i)
    }
    assert(errSum.toDouble / trials < 50, s"avg error ${errSum.toDouble / trials}")
  }

  test("single-element and constant arrays") {
    val one = Rmi.build(Array(42L))
    assert(one.predict(42L) == 0)
    assert(one.cdf(41L) == 0.0 && one.cdf(42L) == 1.0)
    val sevens = Array.fill(100)(7L)
    val const = Rmi.build(sevens)
    assert(SearchUtil.lowerBound(sevens, 7L, const.predict(7L)) == 0)
    assert(SearchUtil.upperBound(sevens, 7L, const.predict(7L)) == 100)
    assert(SearchUtil.lowerBound(sevens, 8L, const.predict(8L)) == 100)
  }

  test("empty input: cdf stays monotone in [0, 1] and every bound is 0") {
    val none = Array.emptyLongArray
    val empty = Rmi.build(none)
    val cdfs = Seq(Long.MinValue, -1L, 0L, 1L, Long.MaxValue).map(empty.cdf)
    assert(cdfs.forall(c => c >= 0.0 && c <= 1.0) && cdfs.zip(cdfs.tail).forall { case (a, b) => a <= b })
    for (v <- Seq(Long.MinValue, 0L, Long.MaxValue)) {
      val p = empty.predict(v)
      assert(p == 0 && SearchUtil.lowerBound(none, v, p) == 0 && SearchUtil.upperBound(none, v, p) == 0)
    }
  }

  test("sizeBytes is positive and scales with leaves") {
    val small = Rmi.build(uniform, leaves = 8)
    val large = Rmi.build(uniform, leaves = 512)
    assert(small.sizeBytes > 0)
    assert(large.sizeBytes > small.sizeBytes)
  }
}
