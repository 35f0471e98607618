package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.model.SearchUtil
import repro.store.{ColumnStore, RangeQuery, Scan}

import java.util.concurrent.{Callable, ForkJoinPool, ForkJoinTask}
import scala.jdk.CollectionConverters._
import scala.util.Random

class FloodIndexSpec extends AnyFunSuite {

  private val store = TestData.randomStore(3000, 4, seed = 71)
  private val flat = CdfFlattening.train(store)
  private val layout = Layout(Array(0, 1, 2, 3), Array(8, 4, 4))
  private val flood = new FloodIndex(store, layout, flat, aggDim = 1)

  test("COUNT and SUM match brute force on random queries") {
    val rng = new Random(72)
    for (i <- 0 until 100) {
      val q = TestData.randomQuery(store, rng)
      val r = flood.query(q)
      val (c, s) = Scan.brute(store, q, aggDim = 1)
      assert(r.count == c, s"query $i: $q")
      assert(r.sum == s, s"query $i: $q")
    }
  }

  /** Every counter of a query, timings aside. */
  private def counters(s: FloodStats) = (s.count, s.sum, s.scanned, s.exactPoints, s.cellsInRect, s.nonEmptyCells)

  // 20,000 rows in 64 × 32 × 4 cells: unfiltered and sort-only queries meet
  // more than `ParallelMinCells` non-empty cells and are split over the workers
  private lazy val bigStore = TestData.randomStore(20000, 4, seed = 76)
  private lazy val big = new FloodIndex(bigStore, Layout(Array(0, 1, 2, 3), Array(64, 32, 4)), CdfFlattening.train(bigStore), aggDim = 1)
  private lazy val bigQueries = {
    val rng = new Random(74)
    val keys = bigStore.columns(3)
    val xs = bigStore.columns(0).sorted
    RangeQuery.full(4) +: (Seq.fill(50)(TestData.randomQuery(bigStore, rng)) ++ Seq.fill(10) {
      val (a, b) = (keys(rng.nextInt(keys.length)), keys(rng.nextInt(keys.length)))
      RangeQuery.of(4, 3 -> (math.min(a, b), math.max(a, b)))
    } ++ (0 until 24 by 2).map { c =>
      // about 40 of dimension 0's 64 columns, from column c: split queries
      // of about the same length whose cell lists differ
      RangeQuery.of(4, 0 -> (xs(c * xs.length / 64), xs((c + 40) * xs.length / 64)))
    })
  }

  test("queries from several threads at once give the single-thread answers and counters") {
    val expected = bigQueries.map(q => counters(big.queryWithStats(q)))
    assert(expected.count(_._6 >= FloodIndex.ParallelMinCells) >= 23, "the unfiltered, sort-only and 40-column queries split")
    val failures = new java.util.concurrent.atomic.AtomicInteger
    val threads = Seq.tabulate(4) { t =>
      new Thread(() =>
        for (round <- 0 until 5; i <- new Random(t * 10 + round).shuffle(bigQueries.indices.toList))
          if (counters(big.queryWithStats(bigQueries(i))) != expected(i)) failures.incrementAndGet())
    }
    threads.foreach(_.start())
    threads.foreach(_.join())
    assert(failures.get == 0)
    for ((q, e) <- bigQueries.zip(expected)) assert((e._1, e._2) == Scan.brute(bigStore, q, aggDim = 1))
  }

  test("queries issued from ForkJoinPool.commonPool tasks: a waiting caller runs no other query") {
    // 16 tasks forked from a commonPool task, so they wait in the queues of
    // the pool's threads, each running split queries. A caller that ran a
    // queued task while it waited for its chunks would start a query inside
    // its own, on the same thread, and overwrite the cell list its chunks
    // are still reading
    val expected = bigQueries.map(q => counters(big.queryWithStats(q)))
    val inQuery = ThreadLocal.withInitial[java.lang.Boolean](() => false)
    val nested = new java.util.concurrent.atomic.AtomicInteger
    def check(i: Int): Boolean = {
      if (inQuery.get) nested.incrementAndGet()
      inQuery.set(true)
      try counters(big.queryWithStats(bigQueries(i))) == expected(i) finally inQuery.set(false)
    }
    val tasks = (0 until 16).map { t =>
      ForkJoinTask.adapt(new Callable[Int] {
        def call(): Int = new Random(t).shuffle(bigQueries.indices.toList).count(i => !check(i))
      })
    }
    val wrong = ForkJoinPool.commonPool().submit(new Callable[Int] {
      def call(): Int = ForkJoinTask.invokeAll(tasks.asJava).asScala.map(_.join()).sum
    })
    assert(wrong.get == 0)
    assert(nested.get == 0, "queries started inside a waiting query on its thread")
  }

  /** A store whose grid column `x` takes `k` values, each in a cell of its
    * own, so every sort-only query meets exactly `k` non-empty cells; its
    * aggregation column lies near `Long.MaxValue`, so sums wrap.
    */
  private def kCells(k: Int): FloodIndex = {
    val rng = new Random(90 + k)
    val n = 3 * k
    val s = ColumnStore.of(
      "x" -> Array.tabulate(n)(i => (i % k).toLong),
      "key" -> Array.fill(n)(rng.nextInt(n).toLong - n / 2),
      "agg" -> Array.fill(n)(Long.MaxValue - rng.nextInt(1000)))
    new FloodIndex(s, Layout(Array(0, 2, 1), Array(4 * k, 1)), LinearFlattening.fromStore(s), aggDim = 2)
  }

  test("just below and just above ParallelMinCells: split and one-chunk queries match brute force and each other") {
    val p = FloodIndex.ParallelMinCells
    val extremes = Array(Long.MinValue, Long.MinValue + 1, -1L, 0L, 1L, Long.MaxValue - 1, Long.MaxValue)
    for ((idx, k) <- Seq(kCells(p - 1) -> (p - 1), kCells(p + 1) -> (p + 1))) {
      val s = idx.data
      val rng = new Random(k)
      val full = idx.queryWithStats(RangeQuery.full(3))
      assert(full.nonEmptyCells == k)
      assert(BigInt(full.sum) != s.columns(2).map(BigInt(_)).sum, "the aggregation column's sum wraps")
      def key() = s(1, rng.nextInt(s.numRows))
      def extreme() = extremes(rng.nextInt(extremes.length))
      val sortOnly = Seq.fill(20) {
        val (a, b) = rng.nextInt(4) match {
          case 0 => (key(), key())
          case 1 => { val v = key(); (v, v) }
          case 2 => (key(), Long.MaxValue)
          case _ => (extreme(), extreme())
        }
        RangeQuery.of(3, 1 -> (math.min(a, b), math.max(a, b)))
      }
      val extreme3 = Seq.fill(20) {
        val q = RangeQuery.full(3)
        for (d <- 0 until 3 if rng.nextBoolean()) {
          val (a, b) = (extreme(), extreme())
          q.lo(d) = math.min(a, b); q.hi(d) = math.max(a, b)
        }
        q
      }
      val inverted = (0 until 3).map(d => RangeQuery.of(3, d -> (5L, 4L)))
      val queries = RangeQuery.full(3) +: (sortOnly ++ Seq.fill(30)(TestData.randomQuery(s, rng)) ++ inverted ++ extreme3)
      for ((q, i) <- queries.zipWithIndex) {
        val r = idx.queryWithStats(q)
        // one chunk, and every query split however few cells it meets
        for (minCells <- Seq(Int.MaxValue, 0))
          assert(counters(r) == counters(idx.queryWithStats(q, minCells)), s"$k cells, query $i, split from $minCells: $q")
        assert((r.count, r.sum) == Scan.brute(s, q, aggDim = 2), s"$k cells, query $i: $q")
        assert(r.scanned == referenceScanned(idx, q), s"$k cells, query $i: $q")
      }
      assert(sortOnly.forall(q => idx.queryWithStats(q).nonEmptyCells == k))
    }
    if (FloodIndex.Chunks > 1)
      assert(Thread.getAllStackTraces.keySet.asScala.exists(_.getName == "flood-worker"))
  }

  test("correct across many random layouts (the key invariant)") {
    val rng = new Random(73)
    for (trial <- 0 until 20) {
      val order = rng.shuffle((0 until 4).toList).toArray
      val cols = Array.fill(3)(1 + rng.nextInt(12))
      val idx = new FloodIndex(store, Layout(order, cols), flat, aggDim = 0)
      for (_ <- 0 until 15) {
        val q = TestData.randomQuery(store, rng)
        val r = idx.query(q)
        val (c, s) = Scan.brute(store, q, aggDim = 0)
        assert(r.count == c && r.sum == s, s"trial $trial layout=${Layout(order, cols)} q=$q")
      }
    }
  }

  test("correct with linear (non-flattened) layout") {
    val rng = new Random(74)
    val idx = new FloodIndex(store, layout, LinearFlattening.fromStore(store), aggDim = 1)
    for (_ <- 0 until 50) {
      val q = TestData.randomQuery(store, rng)
      assert(idx.query(q).count == Scan.brute(store, q)._1)
    }
  }

  /** Points a query scans: every non-empty cell of the projection, narrowed
    * by a binary search of the sort column when the query filters it.
    */
  private def referenceScanned(idx: FloodIndex, q: RangeQuery): Long = {
    val l = idx.layout
    val ct = idx.cellTable
    val sortCol = idx.data.columns(l.sortDim)
    val (lo, hi) = (q.lo(l.sortDim), q.hi(l.sortDim))
    var scanned = 0L
    val w = l.project(idx.flattening, q).walk(l.strides)
    while (!w.done) {
      var s = ct(w.id.toInt)
      var e = ct(w.id.toInt + 1)
      if (q.filters(l.sortDim)) {
        s = SearchUtil.binaryLowerBound(sortCol, lo, s, e)
        e = SearchUtil.binaryUpperBound(sortCol, hi, s, e)
      }
      scanned += e - s
      w.next()
    }
    scanned
  }

  private def cellSizes(idx: FloodIndex): Seq[Int] =
    idx.cellTable.toSeq.zip(idx.cellTable.tail).map { case (s, e) => e - s }

  test("refinement scans the binary-searched range of every cell") {
    val coarse = new FloodIndex(store, Layout(Array(0, 1, 2, 3), Array(4, 2, 2)), flat, aggDim = 1)
    // sorted by the 8-valued dimension: refinement bounds fall inside runs of duplicates
    val dupSort = new FloodIndex(store, Layout(Array(0, 1, 3, 2), Array(6, 3, 1)), flat, aggDim = 1)
    val rng = new Random(75)
    for (idx <- Seq(flood, coarse, dupSort); i <- 0 until 80) {
      val q = TestData.randomQuery(store, rng)
      val r = idx.queryWithStats(q)
      assert(r.scanned == referenceScanned(idx, q), s"layout ${idx.layout} query $i: $q")
      assert((r.count, r.sum) == Scan.brute(store, q, aggDim = 1), s"layout ${idx.layout} query $i: $q")
    }
  }

  test("hostile sort keys and bounds: refinement scans the binary-searched range") {
    // a grid column that puts ~90% of the rows in cell 0 and the rest in
    // cell 1; duplicate-heavy sort keys with runs of the `Long` extremes
    val n = 4000
    val rng = new Random(80)
    val s = ColumnStore.of(
      "g" -> Array.fill(n)(if (rng.nextInt(10) < 9) rng.nextInt(1000).toLong else 1000L + rng.nextInt(1000)),
      "k" -> Array.fill(n) {
        rng.nextInt(100) match {
          case 0 => Long.MinValue
          case 1 => Long.MaxValue
          case _ => rng.nextInt(3000).toLong - 1500
        }
      })
    val split = new FloodIndex(s, Layout(Array(0, 1), Array(2)), LinearFlattening.fromStore(s), aggDim = 0)
    val one = new FloodIndex(s, Layout(Array(0, 1), Array(1)), LinearFlattening.fromStore(s), aggDim = 0)
    val sizes = cellSizes(split)
    assert(sizes.length == 2 && sizes.min > 0 && sizes.max > 4 * sizes.min, sizes)
    val extremes = Array(Long.MinValue, Long.MinValue + 1, -1L, 0L, 1L, Long.MaxValue - 1, Long.MaxValue)
    def key() = s(1, rng.nextInt(n))
    val queries = Seq.fill(40) { // random bounds on the sort dimension, sometimes also on the grid
      val q = TestData.randomQuery(s, rng)
      val (a, b) = (key() - rng.nextInt(50), key() + rng.nextInt(50))
      q.lo(1) = math.min(a, b); q.hi(1) = math.max(a, b)
      q
    } ++ Seq.fill(20) { val v = key(); RangeQuery.of(2, 1 -> (v, v)) } ++ // points
      Seq.fill(10) { val v = rng.nextInt(3000).toLong - 1500; RangeQuery.of(2, 1 -> (v + 1, v)) } ++ // inverted
      Seq.fill(40) { // Long-extreme bounds mixed with keys
        def bound() = if (rng.nextBoolean()) extremes(rng.nextInt(extremes.length)) else key()
        val (a, b) = (bound(), bound())
        RangeQuery.of(2, 1 -> (math.min(a, b), math.max(a, b)))
      }
    for (idx <- Seq(split, one); (q, i) <- queries.zipWithIndex) {
      val r = idx.queryWithStats(q)
      assert(r.scanned == referenceScanned(idx, q), s"layout ${idx.layout} query $i: $q")
      assert((r.count, r.sum) == Scan.brute(s, q, aggDim = 0), s"layout ${idx.layout} query $i: $q")
    }
  }

  test("data is laid out in (cell, sort-dim) order") {
    val data = flood.data
    val ct = flood.cellTable
    val sortCol = data.columns(layout.sortDim)
    for (c <- 0 until layout.numCells.toInt) {
      val s = ct(c); val e = ct(c + 1)
      var i = s + 1
      while (i < e) { assert(sortCol(i - 1) <= sortCol(i), s"cell $c not sorted at $i"); i += 1 }
    }
  }

  test("cell table covers all rows and is monotone") {
    val ct = flood.cellTable
    assert(ct(0) == 0)
    assert(ct.last == store.numRows)
    assert(ct.zip(ct.tail).forall { case (a, b) => a <= b })
  }

  test("every point is in the cell the flattening assigns") {
    val data = flood.data
    val ct = flood.cellTable
    val strides = layout.strides
    for (row <- 0 until data.numRows by 37) {
      var cell = 0L
      for (i <- 0 until 3)
        cell += flat.colOf(layout.order(i), data(layout.order(i), row), layout.cols(i)) * strides(i)
      assert(row >= ct(cell.toInt) && row < ct(cell.toInt + 1), s"row $row not in cell $cell")
    }
  }

  test("full-range query scans everything and matches") {
    val q = RangeQuery.full(4)
    val r = flood.queryWithStats(q)
    assert(r.count == store.numRows)
    assert(r.scanned == store.numRows)
    assert(r.cellsInRect == layout.numCells)
  }

  test("sort-dimension-only query is fully exact (refinement, no scan checks)") {
    val sortCol = store.columns(layout.sortDim).clone()
    java.util.Arrays.sort(sortCol)
    val q = RangeQuery.of(4, layout.sortDim -> (sortCol(500), sortCol(2500)))
    val r = flood.queryWithStats(q)
    assert(r.count == Scan.brute(store, q)._1)
    assert(r.exactPoints == r.scanned, "all scanned points should be in exact sub-ranges")
    assert(r.scanned == r.count, "refinement makes the sort dim exact: no overscan")
  }

  test("grid-dim filter reduces scanned points vs full scan") {
    val d0 = store.columns(0).clone()
    java.util.Arrays.sort(d0)
    val q = RangeQuery.of(4, 0 -> (d0(0), d0(300))) // ~10% of dim 0
    val r = flood.queryWithStats(q)
    assert(r.scanned < store.numRows / 2, s"scanned ${r.scanned}")
    assert(r.count == Scan.brute(store, q)._1)
  }

  test("narrower columns reduce scan overhead (paper Fig 4)") {
    val coarse = new FloodIndex(store, Layout(Array(0, 1, 2, 3), Array(2, 1, 1)), flat)
    val fine = new FloodIndex(store, Layout(Array(0, 1, 2, 3), Array(32, 1, 1)), flat)
    val d0 = store.columns(0).clone()
    java.util.Arrays.sort(d0)
    val q = RangeQuery.of(4, 0 -> (d0(100), d0(400)))
    val rc = coarse.queryWithStats(q)
    val rf = fine.queryWithStats(q)
    assert(rf.scanned <= rc.scanned)
    assert(rf.count == rc.count)
  }

  test("stats: projection/refine/scan times are non-negative") {
    for (q <- Seq(RangeQuery.of(4, layout.sortDim -> (0L, 100L)), RangeQuery.of(4, 0 -> (0L, 100L)))) {
      val r = flood.queryWithStats(q)
      assert(r.projectionNanos >= 0 && r.refineNanos >= 0 && r.scanNanos >= 0)
    }
  }

  test("empty-result query") {
    val q = RangeQuery.of(4, 0 -> (store.max(0) + 10, store.max(0) + 20))
    val r = flood.query(q)
    assert(r.count == 0 && r.sum == 0)
  }

  test("point query (equality on all dims) matches brute force") {
    val rng = new Random(77)
    for (_ <- 0 until 20) {
      val row = rng.nextInt(store.numRows)
      val q = RangeQuery(
        Array.tabulate(4)(d => store(d, row)),
        Array.tabulate(4)(d => store(d, row)))
      assert(flood.query(q).count == Scan.brute(store, q)._1)
    }
  }

  test("single-dimension layout behaves as a clustered index") {
    val s1 = ColumnStore.of("x" -> store.columns(0), "y" -> store.columns(1))
    val l1 = Layout(Array(1, 0), Array(1)) // one grid column: everything in cell 0, sorted by x
    val idx = new FloodIndex(s1, l1, CdfFlattening.train(s1), aggDim = 1)
    val rng = new Random(78)
    for (_ <- 0 until 30) {
      val q = TestData.randomQuery(s1, rng)
      val r = idx.query(q)
      val (c, su) = Scan.brute(s1, q, 1)
      assert(r.count == c && r.sum == su)
    }
  }

  test("sizeBytes > 0 and plmBytes is 0 on every layout") {
    val oneCell = new FloodIndex(store, Layout(Array(0, 1, 2, 3), Array(1, 1, 1)), flat)
    val fine = new FloodIndex(store, Layout(Array(3, 2, 1, 0), Array(32, 8, 4)), flat)
    for (idx <- Seq(flood, oneCell, fine)) {
      assert(idx.sizeBytes > 0, idx.layout)
      assert(idx.plmBytes == 0, idx.layout)
    }
  }

  test("rejects layouts over foreign dimensionality") {
    intercept[IllegalArgumentException] {
      new FloodIndex(store, Layout(Array(0, 1), Array(4)), flat)
    }
    // four distinct entries, but not the dimensions 0 until 4
    for (order <- Seq(Array(0, 1, 2, 4), Array(0, 1, -1, 3)))
      intercept[IllegalArgumentException] {
        new FloodIndex(store, Layout(order, Array(2, 2, 2)), flat)
      }
  }

  test("buildNanos is measured") {
    assert(flood.buildNanos > 0)
  }

  test("load-phase timings are non-negative and sum to at most buildNanos") {
    val l = flood.loadNanos
    val phases = Seq(l.assign, l.keySort, l.countingSort, l.reorder, l.boxes, l.prefixSums)
    assert(phases.forall(_ >= 0), l)
    assert(phases.sum <= flood.buildNanos, s"$l against buildNanos ${flood.buildNanos}")
  }

  test("duplicate-heavy store is handled") {
    val rng = new Random(79)
    val s = ColumnStore.of(
      "a" -> Array.fill(2000)(rng.nextInt(3).toLong),
      "b" -> Array.fill(2000)(rng.nextInt(2).toLong),
      "c" -> Array.fill(2000)(rng.nextInt(5).toLong))
    val idx = new FloodIndex(s, Layout(Array(0, 1, 2), Array(4, 4)), CdfFlattening.train(s))
    for (_ <- 0 until 30) {
      val q = TestData.randomQuery(s, rng)
      assert(idx.query(q).count == Scan.brute(s, q)._1)
    }
  }

  test("empty store: the flattening trains and every query answers (0, 0)") {
    val s = ColumnStore.of("a" -> Array.empty[Long], "b" -> Array.empty[Long], "c" -> Array.empty[Long])
    val idx = new FloodIndex(s, Layout(Array(0, 1, 2), Array(4, 4)), CdfFlattening.train(s), aggDim = 2)
    val q = RangeQuery.full(3)
    q.lo(0) = 5; q.hi(0) = 50; q.lo(2) = -1
    for (query <- Seq(RangeQuery.full(3), q)) {
      val r = idx.query(query)
      assert((r.count, r.sum) == ((0L, 0L)))
    }
  }
}
