package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.store.ColumnStore

import scala.util.Random

class FlatteningSpec extends AnyFunSuite {

  private val store = TestData.randomStore(5000, 4, seed = 61)
  private val cdf = CdfFlattening.train(store)
  private val lin = LinearFlattening.fromStore(store)

  test("frac is within [0,1] for both flattenings") {
    val rng = new Random(62)
    for (_ <- 0 until 500; d <- 0 until 4) {
      val v = store(d, rng.nextInt(store.numRows))
      for (f <- Seq(cdf.frac(d, v), lin.frac(d, v))) assert(f >= 0.0 && f <= 1.0)
    }
  }

  test("frac is monotone in the value") {
    for (d <- 0 until 4) {
      val vals = (0 until 200).map(i => store.min(d) + (store.max(d) - store.min(d)) * i / 200)
      for (f <- Seq[Flattening](cdf, lin)) {
        val fs = vals.map(f.frac(d, _))
        assert(fs.zip(fs.tail).forall { case (a, b) => a <= b + 1e-12 })
      }
    }
  }

  test("colOf clamps out-of-range values") {
    for (f <- Seq[Flattening](cdf, lin)) {
      assert(f.colOf(0, Long.MinValue, 16) == 0)
      assert(f.colOf(0, Long.MaxValue, 16) == 15)
    }
  }

  test("colOf is monotone and consistent with frac") {
    val rng = new Random(63)
    for (_ <- 0 until 200) {
      val d = rng.nextInt(4)
      val a = store(d, rng.nextInt(store.numRows))
      val b = store(d, rng.nextInt(store.numRows))
      val (lo, hi) = if (a <= b) (a, b) else (b, a)
      assert(cdf.colOf(d, lo, 32) <= cdf.colOf(d, hi, 32))
    }
  }

  test("CDF flattening balances skewed dimensions; linear does not (paper Fig 6)") {
    // dim 1 of randomStore is heavily skewed (x^4)
    val d = 1
    val c = 16
    def histo(f: Flattening): Array[Int] = {
      val h = new Array[Int](c)
      for (i <- 0 until store.numRows) h(f.colOf(d, store(d, i), c)) += 1
      h
    }
    val hCdf = histo(cdf)
    val hLin = histo(lin)
    val n = store.numRows
    // flattened: largest column within 3x of the ideal share
    assert(hCdf.max <= 3 * n / c, s"cdf max col ${hCdf.max}")
    // linear on x^4-skewed data: bottom column hoards far more than its share
    assert(hLin.max > 4 * n / c, s"lin max col ${hLin.max}")
  }

  test("flattening trained on a sample still covers the full data range") {
    // 200 distinct random rows, as `FloodSpark.learnLayout` trains on a sample
    val rows = new Random(64).shuffle((0 until store.numRows).toList).take(200).toArray
    val small = CdfFlattening.train(new ColumnStore(store.names, store.columns.map(c => rows.map(c(_)))))
    for (d <- 0 until 4) {
      assert(small.colOf(d, store.min(d), 8) == 0 || small.frac(d, store.min(d)) <= 0.2)
      assert(small.colOf(d, store.max(d), 8) == 7 || small.frac(d, store.max(d)) >= 0.8)
    }
  }

  test("sizeBytes positive") {
    assert(cdf.sizeBytes > 0)
    assert(lin.sizeBytes > 0)
  }

  test("constant dimension maps everything to one column") {
    val s = ColumnStore.of("k" -> Array.fill(100)(5L))
    val f = CdfFlattening.train(s)
    assert((0 until 100).forall(_ => f.colOf(0, 5L, 4) == f.colOf(0, 5L, 4)))
    val l = LinearFlattening.fromStore(s)
    assert(l.colOf(0, 5L, 4) >= 0 && l.colOf(0, 5L, 4) < 4)
  }

  test("compiled boundaries assign every value the column colOf assigns") {
    val rng = new Random(65)
    val skewed = ColumnStore.of("k" -> Array.fill(4000)((math.pow(rng.nextDouble(), 6) * 1e12).toLong))
    val dups = ColumnStore.of("k" -> Array.fill(4000)(rng.nextInt(5).toLong * 1000 - 2000))
    val constant = ColumnStore.of("k" -> Array.fill(4000)(42L))
    // colOf(Long.MaxValue) is about c / 2: the upper columns are unreachable
    val half = new Flattening {
      def frac(dim: Int, v: Long): Double = 0.5 * ((v.toDouble - Long.MinValue.toDouble) / math.pow(2, 64))
      def sizeBytes: Long = 0
    }
    val cases = Seq[(String, Flattening, Int)](
      ("cdf skewed", CdfFlattening.train(skewed), 0), ("cdf duplicates", CdfFlattening.train(dups), 0),
      ("cdf constant", CdfFlattening.train(constant), 0), ("cdf random-store d1", cdf, 1),
      ("linear", lin, 2), ("half", half, 0))
    for ((name, f, dim) <- cases; c <- Seq(1, 2, 3, 96, 128)) {
      val b = f.boundaries(dim, c)
      assert(b.bounds.length == f.colOf(dim, Long.MaxValue, c), s"$name c=$c")
      assert(b.bounds.zip(b.bounds.drop(1)).forall { case (x, y) => x <= y }, s"$name c=$c")
      val probes = Seq(Long.MinValue, Long.MaxValue, 0L) ++ Seq.fill(2000)(rng.nextLong()) ++
        Seq.fill(500)(rng.nextLong() % 1000000000000L) ++ b.bounds.flatMap(v => Seq(v - 1, v, v + 1))
      for (v <- probes) assert(b.column(v) == f.colOf(dim, v, c), s"$name c=$c v=$v")
    }
    assert(half.boundaries(0, 128).bounds.length < 127)
  }
}
