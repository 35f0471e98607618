package repro.store

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData

import scala.util.Random

class ScanSpec extends AnyFunSuite {

  private val store = TestData.randomStore(2000, 4, seed = 51)
  Seq(0, 1).foreach(store.buildPrefixSums)

  test("RangeQuery.full filters nothing") {
    val q = RangeQuery.full(4)
    assert(q.filteredDims.isEmpty)
    assert((0 until 4).forall(!q.filters(_)))
    assert(q.matchesRow(store, 0))
  }

  test("RangeQuery.of sets the right dimensions") {
    val q = RangeQuery.of(4, 1 -> (5L, 10L), 3 -> (0L, 0L))
    assert(q.filteredDims.toSeq == Seq(1, 3))
    assert(q.contains(1, 7L) && !q.contains(1, 11L))
    assert(q.contains(3, 0L) && !q.contains(3, 1L))
  }

  test("one-sided filters count as filtered") {
    val q = RangeQuery.full(3)
    q.lo(2) = 100L
    assert(q.filters(2))
    assert(q.filteredDims.toSeq == Seq(2))
  }

  /** Scan the given (start, end, checks) ranges of `data`, summing column `aggDim`. */
  private def scanOn(data: ColumnStore, q: RangeQuery, aggDim: Int, ranges: (Int, Int, Long)*): IndexResult = {
    val cands = new Candidates(data, q, aggDim)
    for ((s, e, checks) <- ranges) cands.add(s, e, checks)
    cands.scan(System.nanoTime())
  }

  private def scan(q: RangeQuery, aggDim: Int, ranges: (Int, Int, Long)*): IndexResult =
    scanOn(store, q, aggDim, ranges: _*)

  /** Rows `[s, e)` of `data` as a store of their own. */
  private def slice(data: ColumnStore, s: Int, e: Int): ColumnStore =
    new ColumnStore(data.names, data.columns.map(_.slice(s, e)))

  /** `q` with the dimensions outside `mask` unfiltered. */
  private def restrict(q: RangeQuery, mask: Long): RangeQuery = {
    val r = q.copy(lo = q.lo.clone(), hi = q.hi.clone())
    for (d <- 0 until q.numDims if (mask >>> d & 1L) == 0L) { r.lo(d) = Long.MinValue; r.hi(d) = Long.MaxValue }
    r
  }

  /** Kernel on `[s, e)` with `mask` against brute force over those rows. */
  private def assertKernel(data: ColumnStore, q: RangeQuery, aggDim: Int, s: Int, e: Int, mask: Long): Unit = {
    val qm = restrict(q, mask)
    val r = scanOn(data, qm, aggDim, (s, e, mask))
    assert((r.count, r.sum) == Scan.brute(slice(data, s, e), qm, aggDim), s"$qm on [$s, $e) mask ${mask.toBinaryString}")
    assert(r.scanned == e - s)
  }

  test("scanRange over full range with all filters equals brute force") {
    val rng = new Random(52)
    for (_ <- 0 until 30) {
      val q = TestData.randomQuery(store, rng)
      val r = scan(q, 0, (0, store.numRows, q.filteredMask))
      assert((r.count, r.sum) == Scan.brute(store, q, 0))
    }
  }

  test("Candidates: an exact range (mask 0) counts the whole range") {
    val r = scan(RangeQuery.full(4), 1, (100, 200, 0L))
    assert(r.count == 100)
    assert(r.sum == (100 until 200).map(store(1, _)).sum)
  }

  test("scanRange respects sub-range boundaries") {
    val q = RangeQuery.of(4, 2 -> (0L, 3L))
    val c1 = scan(q, 0, (0, 1000, q.filteredMask)).count
    val c2 = scan(q, 0, (1000, 2000, q.filteredMask)).count
    val (cAll, _) = Scan.brute(store, q)
    assert(c1 + c2 == cAll)
  }

  test("Candidates: an exact range and a masked range in one scan") {
    // rows [0, 500) are taken whole; rows [500, 2000) are checked on dim 2 only
    val q = RangeQuery.of(4, 2 -> (0L, 3L), 3 -> (Long.MinValue, 50L))
    val r = scan(q, 1, (0, 500, 0L), (500, 2000, 1L << 2))
    val masked = (500 until 2000).filter(i => q.contains(2, store(2, i)))
    assert(r.count == 500 + masked.length)
    assert(r.sum == (0 until 500).map(store(1, _)).sum + masked.map(store(1, _)).sum)
    assert(r.scanned == 2000)
  }

  test("Candidates drop empty ranges and every range of an inverted query") {
    val q = RangeQuery.of(4, 0 -> (0L, 500000L))
    val r = scan(q, 0, (300, 300, 0L), (400, 100, 1L))
    assert((r.count, r.sum, r.scanned) == ((0L, 0L, 0L)))
    val ri = scan(RangeQuery.of(4, 1 -> (10L, 9L)), 0, (0, store.numRows, 0L), (0, 100, 2L))
    assert((ri.count, ri.sum, ri.scanned) == ((0L, 0L, 0L)))
  }

  test("Candidates merge a range that continues the last one with the same mask") {
    val q = RangeQuery.of(4, 2 -> (0L, 3L), 0 -> (100000L, 900000L))
    val m = q.filteredMask
    val ranges = Seq((0, 300, m), (300, 700, m), (700, 900, 1L << 2), (900, 1000, 1L << 2),
      (1001, 1500, 1L << 2), (1500, 1600, 0L), (1600, 2000, 0L))
    val cands = new Candidates(store, q, 1)
    for ((s, e, checks) <- ranges) cands.add(s, e, checks)
    assert(cands.numRanges == 4) // [0,700) m, [700,1000) and [1001,1500) dim 2, [1500,2000) exact
    val r = cands.scan(System.nanoTime())
    val unmerged = ranges.map { case (s, e, checks) => scan(q, 1, (s, e, checks)) }
    assert(r.count == unmerged.map(_.count).sum)
    assert(r.sum == unmerged.map(_.sum).sum)
    assert(r.scanned == unmerged.map(_.scanned).sum)
  }

  test("kernel matches brute force at Long extremes, chunk edges and every mask") {
    val ext = Array(Long.MinValue, Long.MinValue + 1, -1L, 0L, 1L, Long.MaxValue - 1, Long.MaxValue)
    val rng = new Random(53)
    val d = 3
    val n = 3 * Candidates.Chunk + 7
    val data = new ColumnStore(Array.tabulate(d)(k => s"x$k"), Array.fill(d)(Array.fill(n) {
      if (rng.nextBoolean()) ext(rng.nextInt(ext.length)) else rng.nextInt(7).toLong - 3
    }))
    def bound(): Long = if (rng.nextInt(3) > 0) ext(rng.nextInt(ext.length)) else rng.nextInt(7).toLong - 3
    val lengths = Seq(1, Candidates.Chunk - 1, Candidates.Chunk, Candidates.Chunk + 1, 2 * Candidates.Chunk + 1, n)
    for (mask <- 1L until (1L << d); len <- lengths; _ <- 0 until 12) {
      val q = RangeQuery.full(d)
      for (k <- 0 until d) {
        val a = bound(); val b = bound()
        rng.nextInt(4) match {
          case 0 => q.lo(k) = math.min(a, b) // one-sided lower
          case 1 => q.hi(k) = math.max(a, b) // one-sided upper
          case 2 => q.lo(k) = a; q.hi(k) = a // point
          case _ => q.lo(k) = math.min(a, b); q.hi(k) = math.max(a, b)
        }
      }
      val s = rng.nextInt(n - len + 1)
      assertKernel(data, q, rng.nextInt(d), s, s + len, mask)
    }
  }

  test("kernel checks dimension 63, whose mask bit is the sign bit") {
    val rng = new Random(54)
    val n = Candidates.Chunk + 3
    val data = new ColumnStore(Array.tabulate(64)(k => s"x$k"),
      Array.fill(64)(Array.fill(n)(rng.nextInt(20).toLong - 10)))
    val q = RangeQuery.of(64, 63 -> (-3L, 4L), 0 -> (Long.MinValue, 2L))
    assert(q.filteredMask < 0L)
    assertKernel(data, q, 5, 0, n, 1L << 63)
    assertKernel(data, q, 5, 0, n, q.filteredMask)
    assertKernel(data, q, 5, 1, n - 1, q.filteredMask)
  }

  test("IndexResult derived metrics") {
    val r = IndexResult(count = 10, sum = 100, scanned = 40, indexNanos = 1000, scanNanos = 3000)
    assert(r.totalNanos == 4000)
  }
}
