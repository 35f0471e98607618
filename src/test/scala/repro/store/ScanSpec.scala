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

  test("scanRange over full range with all filters equals brute force") {
    val rng = new Random(52)
    for (_ <- 0 until 30) {
      val q = TestData.randomQuery(store, rng)
      val got = Scan.scanRange(store, q, q.filteredDims, 0, 0, store.numRows)
      val exp = Scan.brute(store, q, 0)
      assert(got == exp)
    }
  }

  test("scanRange with empty checks counts the whole range") {
    val (c, s) = Scan.scanRange(store, RangeQuery.full(4), Array.empty, 1, 100, 200)
    assert(c == 100)
    assert(s == (100 until 200).map(store(1, _)).sum)
  }

  test("scanRange respects sub-range boundaries") {
    val q = RangeQuery.of(4, 2 -> (0L, 3L))
    val (c1, _) = Scan.scanRange(store, q, q.filteredDims, 0, 0, 1000)
    val (c2, _) = Scan.scanRange(store, q, q.filteredDims, 0, 1000, 2000)
    val (cAll, _) = Scan.brute(store, q)
    assert(c1 + c2 == cAll)
  }

  test("IndexResult derived metrics") {
    val r = IndexResult(count = 10, sum = 100, scanned = 40, indexNanos = 1000, scanNanos = 3000)
    assert(r.totalNanos == 4000)
  }
}
