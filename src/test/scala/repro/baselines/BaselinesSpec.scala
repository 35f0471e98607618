package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.core.{CdfFlattening, FloodIndex, Layout}
import repro.store.{ColumnStore, MultiDimIndex, RangeQuery, Scan}

import scala.util.Random

/** The key correctness property for every baseline, and for Flood beside
  * them: COUNT and SUM match the brute-force answer on random data and
  * random queries (this exercises quantization edges, page pruning, BIGMIN
  * skips, tree descent, bucket enumeration and Flood's cell refinement).
  */
class BaselinesSpec extends AnyFunSuite {

  private val store = TestData.randomStore(3000, 4, seed = 91)
  private val selOrder = Array(0, 3, 1, 2)

  private def indexes(data: ColumnStore, aggDim: Int): Seq[MultiDimIndex] = Seq(
    new FullScan(data, aggDim),
    new ClusteredIndex(data, sortDim = 0, aggDim),
    new ZOrderIndex(data, selOrder, pageSize = 128, aggDim),
    new UBTree(data, selOrder, 128, aggDim),
    new HyperOctree(data, pageSize = 128, aggDim),
    new KdTree(data, selOrder, pageSize = 128, aggDim),
    new GridFile(data, pageSize = 256, aggDim),
    new RStarTree(data, selOrder, pageSize = 128, aggDim),
    new FloodIndex(data, Layout(selOrder, Array(4, 4, 2)), CdfFlattening.train(data), aggDim)
  )

  private val all = indexes(store, aggDim = 1)

  test("all baselines match brute force on 60 random queries") {
    val rng = new Random(92)
    val queries = Array.fill(60)(TestData.randomQuery(store, rng))
    for (q <- queries) {
      val (c, s) = Scan.brute(store, q, aggDim = 1)
      for (idx <- all) {
        val r = idx.query(q)
        assert(r.count == c, s"${idx.name} count mismatch on $q: ${r.count} != $c")
        assert(r.sum == s, s"${idx.name} sum mismatch on $q")
      }
    }
  }

  test("all baselines agree on the unfiltered query") {
    val q = RangeQuery.full(4)
    for (idx <- all) {
      val r = idx.query(q)
      assert(r.count == store.numRows, idx.name)
    }
  }

  test("every index builds its prefix sums: a fresh index's first query computes none") {
    // prefixSums only returns what buildPrefixSums kept, and the unfiltered
    // query answers every index's ranges from them
    val fresh = TestData.randomStore(1500, 4, seed = 95)
    for (idx <- indexes(fresh, aggDim = 2)) {
      val r = idx.query(RangeQuery.full(4))
      assert((r.count, r.sum) == Scan.brute(fresh, RangeQuery.full(4), 2), idx.name)
      assert(r.count == r.scanned, idx.name)
    }
  }

  test("all baselines agree on empty-result queries") {
    val q = RangeQuery.of(4, 0 -> (store.max(0) + 1, store.max(0) + 100))
    for (idx <- all) assert(idx.query(q).count == 0, idx.name)
  }

  test("inverted ranges give (0, 0) and scan nothing in every index") {
    val rng = new Random(107)
    val queries = for (dim <- 0 until 4; _ <- 0 until 5) yield {
      val q = TestData.randomQuery(store, rng)
      val v = store(dim, rng.nextInt(store.numRows))
      q.lo(dim) = v + 1 + rng.nextInt(100); q.hi(dim) = v
      q
    }
    for (q <- queries; idx <- all) {
      val r = idx.query(q)
      assert((r.count, r.sum, r.scanned) == ((0L, 0L, 0L)), s"${idx.name} on $q")
      idx match {
        case f: FloodIndex =>
          val st = f.queryWithStats(q)
          assert((st.cellsInRect, st.nonEmptyCells) == ((0L, 0L)), s"Flood on $q")
        case _ =>
      }
    }
  }

  test("SUM wraps like brute force on aggregation values near Long.MaxValue and Long.MinValue") {
    // column 1 alternates near both extremes, so its sum wraps; exact ranges
    // (the unfiltered query, queries on Flood's sort dim 2 or the clustered
    // index's dim 0 only) are summed from prefix sums, the others row by row
    val rng = new Random(108)
    val ext = new ColumnStore(store.names, store.columns.updated(1,
      Array.tabulate(store.numRows)(i => if (i % 3 == 0) Long.MinValue + rng.nextInt(1000) else Long.MaxValue - rng.nextInt(1000))))
    val idxs = indexes(ext, aggDim = 1)
    assert(ext.columns(1).map(BigInt(_)).sum != BigInt(Scan.brute(ext, RangeQuery.full(4), 1)._2),
      "the column's sum must wrap")
    val sorted = ext.columns.map { c => val s = c.clone(); java.util.Arrays.sort(s); s }
    val queries = Seq(RangeQuery.full(4)) ++
      (0 until 5).flatMap { i =>
        val a = rng.nextInt(ext.numRows); val b = math.min(ext.numRows - 1, a + rng.nextInt(1500))
        Seq(RangeQuery.of(4, 0 -> (sorted(0)(a), sorted(0)(b))), RangeQuery.of(4, 2 -> (i.toLong, i + 2L)))
      } ++ Seq.fill(10)(TestData.randomQuery(ext, rng))
    for (q <- queries) {
      val expected = Scan.brute(ext, q, aggDim = 1)
      for (idx <- idxs) {
        val r = idx.query(q)
        assert((r.count, r.sum) == expected, s"${idx.name} on $q")
      }
    }
  }

  test("all baselines handle point lookups") {
    val rng = new Random(93)
    for (_ <- 0 until 10) {
      val row = rng.nextInt(store.numRows)
      val q = RangeQuery.of(4, 0 -> (store(0, row), store(0, row)), 1 -> (store(1, row), store(1, row)))
      val (c, _) = Scan.brute(store, q)
      for (idx <- all) assert(idx.query(q).count == c, idx.name)
    }
  }

  test("all baselines handle one-sided (open) ranges") {
    val rng = new Random(94)
    for (_ <- 0 until 15) {
      val q = RangeQuery.full(4)
      val dim = rng.nextInt(4)
      if (rng.nextBoolean()) q.lo(dim) = store(dim, rng.nextInt(store.numRows))
      else q.hi(dim) = store(dim, rng.nextInt(store.numRows))
      val (c, _) = Scan.brute(store, q)
      for (idx <- all) assert(idx.query(q).count == c, s"${idx.name} on $q")
    }
  }

  test("scanned >= count for every index (scan overhead >= 1)") {
    val rng = new Random(95)
    for (_ <- 0 until 20) {
      val q = TestData.randomQuery(store, rng)
      for (idx <- all) {
        val r = idx.query(q)
        assert(r.scanned >= r.count, idx.name)
      }
    }
  }

  test("selective indexes scan fewer points than full scan") {
    // a query selective in dim 0 (the leading/selectivity-ordered dim)
    val sorted = store.columns(0).clone(); java.util.Arrays.sort(sorted)
    val q = RangeQuery.of(4, 0 -> (sorted(100), sorted(160)))
    val fullScanned = new FullScan(store, 0).query(q).scanned
    for (idx <- all if idx.name != "Full Scan" && idx.name != "UB tree") {
      val r = idx.query(q)
      assert(r.scanned < fullScanned, s"${idx.name} scanned ${r.scanned}")
    }
  }

  test("build times are measured for non-trivial indexes") {
    for (idx <- all if idx.name != "Full Scan") assert(idx.buildNanos > 0, idx.name)
  }

  test("index sizes are reported") {
    for (idx <- all if idx.name != "Full Scan") assert(idx.sizeBytes > 0, idx.name)
  }

  test("clustered index: sorted by its dimension, full scan fallback works") {
    val ci = new ClusteredIndex(store, sortDim = 2, aggDim = 0)
    val col = ci.data.columns(2)
    assert(col.zip(col.tail).forall { case (a, b) => a <= b })
    // query not touching dim 2 → full scan path
    val q = RangeQuery.of(4, 0 -> (0L, 1000L))
    assert(ci.query(q).count == Scan.brute(store, q)._1)
    assert(ci.query(q).scanned == store.numRows)
  }

  test("k-d tree: page-size bound respected (within degeneracy limits)") {
    val kd = new KdTree(store, selOrder, pageSize = 64)
    assert(kd.numLeaves >= store.numRows / 64 / 4)
  }

  test("hyperoctree: smaller pages give more leaves") {
    val big = new HyperOctree(store, pageSize = 1024)
    val small = new HyperOctree(store, pageSize = 64)
    assert(small.numLeaves > big.numLeaves)
  }

  test("R* tree: leaves cover all rows") {
    val rt = new RStarTree(store, selOrder, pageSize = 100)
    assert(rt.numLeaves == (store.numRows + 99) / 100)
  }

  test("baselines work in 2 dimensions") {
    val s2 = TestData.randomStore(1000, 2, seed = 96)
    val rng = new Random(97)
    val idxs = Seq(
      new ZOrderIndex(s2, Array(0, 1), 64),
      new UBTree(s2, Array(0, 1), 64),
      new HyperOctree(s2, 64),
      new KdTree(s2, Array(0, 1), 64),
      new GridFile(s2, 64),
      new RStarTree(s2, Array(0, 1), 64),
      new FloodIndex(s2, Layout(Array(0, 1), Array(8)), CdfFlattening.train(s2)))
    for (_ <- 0 until 25) {
      val q = TestData.randomQuery(s2, rng)
      val (c, _) = Scan.brute(s2, q)
      for (idx <- idxs) assert(idx.query(q).count == c, s"${idx.name} on $q")
    }
  }

  test("baselines work in 7 dimensions (tpch arity)") {
    val s7 = TestData.randomStore(1500, 7, seed = 98)
    val ord = Array.range(0, 7)
    val rng = new Random(99)
    val idxs = Seq(
      new ZOrderIndex(s7, ord, 128),
      new UBTree(s7, ord, 128),
      new HyperOctree(s7, 128),
      new KdTree(s7, ord, 128),
      new RStarTree(s7, ord, 128),
      new FloodIndex(s7, Layout(ord, Array(4, 3, 2, 1, 1, 2)), CdfFlattening.train(s7)))
    for (_ <- 0 until 25) {
      val q = TestData.randomQuery(s7, rng)
      val (c, _) = Scan.brute(s7, q)
      for (idx <- idxs) assert(idx.query(q).count == c, s"${idx.name} on $q")
    }
  }

  test("UB-tree agrees with the Z-order index and skips dead Z-stretches") {
    val rng = new Random(100)
    val z = new ZOrderIndex(store, selOrder, pageSize = 128)
    val ub = new UBTree(store, selOrder, 128)
    var ubScanned = 0L
    var fullScanned = 0L
    for (_ <- 0 until 20) {
      val q = TestData.randomQuery(store, rng)
      val rz = z.query(q)
      val ru = ub.query(q)
      assert(ru.count == rz.count)
      ubScanned += ru.scanned
      fullScanned += store.numRows
    }
    assert(ubScanned < fullScanned, "BIGMIN skipping should avoid full scans overall")
  }

  test("every index answers on 0-row and 1-row stores") {
    for (n <- Seq(0, 1)) {
      val s = ColumnStore.of("a" -> Array.fill(n)(5L), "b" -> Array.fill(n)(-7L), "c" -> Array.fill(n)(0L))
      val ord = Array(0, 1, 2)
      val idxs = Seq(
        new FullScan(s, 1),
        new ClusteredIndex(s, sortDim = 0, 1),
        new ZOrderIndex(s, ord, 4, 1),
        new UBTree(s, ord, 4, 1),
        new HyperOctree(s, 4, 1),
        new KdTree(s, ord, 4, 1),
        new GridFile(s, 4, 1),
        new RStarTree(s, ord, 4, 1),
        new FloodIndex(s, Layout(ord, Array(2, 2)), CdfFlattening.train(s), 1))
      val queries = Seq(
        RangeQuery.full(3),
        RangeQuery.of(3, 0 -> (5L, 5L), 1 -> (-7L, -7L)),
        RangeQuery.of(3, 0 -> (Long.MinValue, 4L)),
        RangeQuery.of(3, 1 -> (-7L, Long.MaxValue), 2 -> (0L, 10L)))
      for (q <- queries; idx <- idxs) {
        val r = idx.query(q)
        assert((r.count, r.sum) == Scan.brute(s, q, aggDim = 1), s"${idx.name} on $q with $n rows")
      }
    }
  }

  test("every index and Scan.brute reject a query of the wrong arity; the thread then answers as before") {
    val s3 = TestData.randomStore(4000, 3, seed = 109)
    val ord = Array(0, 1, 2)
    val idxs = Seq(
      new FullScan(s3, 1),
      new ClusteredIndex(s3, sortDim = 0, 1),
      new ZOrderIndex(s3, ord, 128, 1),
      new UBTree(s3, ord, 128, 1),
      new HyperOctree(s3, 128, 1),
      new KdTree(s3, ord, 128, 1),
      new GridFile(s3, 256, 1),
      new RStarTree(s3, ord, 128, 1),
      new FloodIndex(s3, Layout(ord, Array(4, 4)), CdfFlattening.train(s3), 1))
    // d + 1 filters the missing dimension 3; d - 1 filters every dimension it has
    val wrong = Seq(RangeQuery.of(4, 3 -> (0L, 100L)), RangeQuery.of(2, 0 -> (0L, 500000L), 1 -> (0L, 5000L)))
    for (q <- wrong) {
      assertThrows[IllegalArgumentException](Scan.brute(s3, q, 1))
      for (idx <- idxs) assertThrows[IllegalArgumentException](idx.query(q), s"${idx.name} on $q")
    }
    val rng = new Random(110)
    for (_ <- 0 until 10) {
      val q = TestData.randomQuery(s3, rng)
      for (idx <- idxs) {
        val r = idx.query(q)
        assert((r.count, r.sum) == Scan.brute(s3, q, 1), s"${idx.name} on $q")
      }
    }
  }
}
