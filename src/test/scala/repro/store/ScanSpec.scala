package repro.store

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData

import scala.util.Random

class ScanSpec extends AnyFunSuite {

  private val store = TestData.randomStore(2000, 4, seed = 51)

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

  /** Scan the given (start, end, checks) ranges, summing column `aggDim`. */
  private def scan(q: RangeQuery, aggDim: Int, ranges: (Int, Int, Long)*): IndexResult = {
    val cands = new Candidates(store, q, aggDim)
    for ((s, e, checks) <- ranges) cands.add(s, e, checks)
    cands.scan(System.nanoTime())
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

  test("IndexResult derived metrics") {
    val r = IndexResult(count = 10, sum = 100, scanned = 40, indexNanos = 1000, scanNanos = 3000)
    assert(r.totalNanos == 4000)
  }
}
