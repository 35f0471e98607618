package repro.model

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData

import scala.util.Random

class PlmSpec extends AnyFunSuite {

  private def firstOccurrence(a: Array[Long], s: Int, e: Int, v: Long): Int =
    SearchUtil.binaryLowerBound(a, v, s, e) - s

  /** Sorted hostile inputs: full-range random, at most 20 distinct values,
    * lognormal, and mostly `Long.MinValue`/`Long.MaxValue` and their
    * neighbours (where distinct values share one `Double`).
    */
  private val hostileKinds = Seq("random", "few-distinct", "lognormal", "extremes")

  private def hostile(kind: String, n: Int, rng: Random): Array[Long] = {
    val few = Array.fill(1 + rng.nextInt(20))(rng.nextInt(1000).toLong)
    val a = Array.fill(n) {
      kind match {
        case "random"       => rng.nextLong()
        case "few-distinct" => few(rng.nextInt(few.length))
        case "lognormal"    => (math.exp(rng.nextGaussian() * 2) * 1000).toLong
        case _ =>
          rng.nextInt(5) match {
            case 0 => Long.MinValue + rng.nextInt(4)
            case 1 | 2 => Long.MaxValue - rng.nextInt(4)
            case 3 => Long.MaxValue - rng.nextInt(1 << 20)
            case _ => rng.nextLong()
          }
      }
    }
    java.util.Arrays.sort(a); a
  }

  test("hostile slices: lower bounds, and each slice's mean error is at most δ + 1") {
    val rng = new Random(31)
    for (kind <- hostileKinds; delta <- Seq(1, 50); trial <- 0 until 4) {
      val a = hostile(kind, 500 + rng.nextInt(3000), rng)
      val s = if (trial % 2 == 0) 0 else rng.nextInt(a.length / 4)
      val e = a.length - (if (trial < 2) 0 else rng.nextInt(a.length / 4))
      val plm = Plm.build(a, s, e, delta.toDouble)
      val distinct = a.slice(s, e).distinct
      val starts = plm.sliceStarts
      assert(starts.head == a(s) && starts.zip(starts.tail).forall { case (x, y) => x < y })
      for ((lo, k) <- starts.zipWithIndex) {
        val hi = if (k + 1 < starts.length) starts(k + 1) else Long.MaxValue
        val slice = distinct.filter(v => v >= lo && (v < hi || k + 1 == starts.length))
        val errs = slice.map(v => firstOccurrence(a, s, e, v).toLong - plm.predict(v))
        assert(errs.forall(_ >= 0), s"$kind δ=$delta: a prediction above the first occurrence")
        // integer arithmetic: Σ err <= (δ + 1) · count, the +1 for predict's truncation
        assert(errs.sum <= (delta + 1).toLong * slice.length,
          s"$kind δ=$delta slice $k: mean error ${errs.sum.toDouble / slice.length}")
      }
    }
  }

  test("one 500k-row slice builds in under 2 s at δ = 10, 50 and 500") {
    val rng = new Random(32)
    val a = Array.fill(500000)(rng.nextLong(1000000000000L))
    java.util.Arrays.sort(a)
    for (delta <- Seq(10.0, 50.0, 500.0)) {
      val t0 = System.nanoTime()
      val plm = Plm.build(a, 0, a.length, delta)
      val secs = (System.nanoTime() - t0) / 1e9
      assert(plm.n == a.length)
      assert(secs < 2.0, s"δ=$delta took $secs s")
    }
  }

  test("predictions are lower bounds of first occurrence (paper §5.2 invariant)") {
    for (seed <- 1 to 5) {
      val a = TestData.sortedWithDuplicates(2000, seed)
      val plm = Plm.build(a, 0, a.length, delta = 20)
      for (v <- a.distinct) {
        val d = firstOccurrence(a, 0, a.length, v)
        assert(plm.predict(v) <= d, s"seed=$seed v=$v pred=${plm.predict(v)} D=$d")
      }
    }
  }

  test("average absolute error is bounded by delta over distinct values") {
    val a = TestData.sortedWithDuplicates(3000, 21)
    for (delta <- Seq(5.0, 50.0, 200.0)) {
      val plm = Plm.build(a, 0, a.length, delta)
      val distinct = a.distinct
      val errs = distinct.map(v => firstOccurrence(a, 0, a.length, v) - plm.predict(v))
      assert(errs.forall(_ >= 0))
      // the greedy bound holds per slice; globally the average stays near δ
      val avg = errs.sum.toDouble / errs.length
      assert(avg <= delta * 2, s"delta=$delta avgErr=$avg")
    }
  }

  test("smaller delta gives more segments (size-speed tradeoff, Fig 17b)") {
    val rng = new Random(22)
    val a = Array.fill(5000)((math.exp(rng.nextGaussian() * 2) * 1000).toLong)
    java.util.Arrays.sort(a)
    val fine = Plm.build(a, 0, a.length, delta = 2)
    val coarse = Plm.build(a, 0, a.length, delta = 500)
    assert(fine.numSegments > coarse.numSegments)
    assert(fine.sizeBytes > coarse.sizeBytes)
  }

  test("prediction + exponential search finds exact bounds") {
    val a = TestData.sortedWithDuplicates(4000, 23)
    val plm = Plm.build(a, 0, a.length, delta = 30)
    val rng = new Random(24)
    for (_ <- 0 until 500) {
      val v = a(rng.nextInt(a.length)) + rng.nextInt(3) - 1
      val got = SearchUtil.lowerBoundRange(a, v, plm.predict(v), 0, a.length)
      assert(got == SearchUtil.binaryLowerBound(a, v, 0, a.length))
    }
  }

  test("works on a sub-slice with offset indices") {
    val a = TestData.sortedWithDuplicates(1000, 25)
    val s = 200; val e = 700
    val plm = Plm.build(a, s, e, delta = 10)
    assert(plm.n == e - s)
    for (i <- s until e by 17) {
      val v = a(i)
      val d = firstOccurrence(a, s, e, v)
      assert(plm.predict(v) <= d)
      assert(plm.predict(v) >= 0 && plm.predict(v) < e - s)
    }
  }

  test("constant values produce one segment") {
    val a = Array.fill(500)(9L)
    val plm = Plm.build(a, 0, a.length, delta = 10)
    assert(plm.numSegments == 1)
    assert(plm.predict(9L) == 0)
  }

  test("strictly increasing values are modeled near-perfectly") {
    val a = Array.tabulate(1000)(i => i.toLong * 5)
    val plm = Plm.build(a, 0, a.length, delta = 10)
    val rng = new Random(26)
    for (_ <- 0 until 200) {
      val i = rng.nextInt(a.length)
      assert(math.abs(plm.predict(a(i)) - i) <= 60)
    }
  }

  test("empty slice") {
    val plm = Plm.build(Array(1L, 2L), 1, 1, delta = 10)
    assert(plm.n == 0)
    assert(plm.predict(5L) == 0)
  }

  test("values below the first slice clamp to zero") {
    val a = Array(100L, 200L, 300L)
    val plm = Plm.build(a, 0, a.length, delta = 10)
    assert(plm.predict(-50L) == 0)
  }

  test("predict is monotone non-decreasing") {
    val a = TestData.sortedWithDuplicates(2000, 27)
    val plm = Plm.build(a, 0, a.length, delta = 25)
    var prev = 0
    for (v <- a.head to math.min(a.last, a.head + 5000)) {
      val p = plm.predict(v)
      assert(p >= prev, s"at v=$v")
      prev = p
    }
  }
}
