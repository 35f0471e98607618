package repro.store

import org.scalatest.funsuite.AnyFunSuite

class RangeBoxesSpec extends AnyFunSuite {

  // rows 0-2 form range 0 with box a ∈ [10, 20], b ∈ [-5, 5]; range 1 is empty
  private val data = ColumnStore.of("a" -> Array(10L, 20L, 15L), "b" -> Array(5L, -5L, 0L))
  private val boxes = RangeBoxes.of(data, Array(0, 3, 3))

  test("intersects counts a query that touches only the box edge") {
    assert(boxes.intersects(0, RangeQuery.of(2, 0 -> (20L, 30L))))
    assert(boxes.intersects(0, RangeQuery.of(2, 0 -> (0L, 10L), 1 -> (5L, 5L))))
    assert(!boxes.intersects(0, RangeQuery.of(2, 0 -> (21L, 30L))))
    assert(!boxes.intersects(0, RangeQuery.of(2, 1 -> (Long.MinValue, -6L))))
    assert(boxes.intersects(0, RangeQuery.full(2)))
  }

  test("checks marks the filtered dims that do not cover the box") {
    // the box is exactly a ∈ [10, 20], b ∈ [-5, 5]: covered at its edges, not one inside
    assert(boxes.checks(0, RangeQuery.of(2, 0 -> (10L, 20L), 1 -> (-5L, 5L))) == 0L)
    assert(boxes.checks(0, RangeQuery.full(2)) == 0L)
    assert(boxes.checks(0, RangeQuery.of(2, 0 -> (11L, 20L))) == 1L)
    assert(boxes.checks(0, RangeQuery.of(2, 1 -> (-5L, 4L))) == 2L)
    assert(boxes.checks(0, RangeQuery.of(2, 0 -> (10L, 19L), 1 -> (-5L, 5L))) == 1L)
    assert(boxes.checks(0, RangeQuery.of(2, 0 -> (10L, 19L), 1 -> (-4L, 5L))) == 3L)
  }

  test("an empty range intersects no query and every query covers it") {
    for (q <- Seq(RangeQuery.full(2), RangeQuery.of(2, 0 -> (Long.MinValue, Long.MaxValue)),
                  RangeQuery.of(2, 1 -> (0L, 0L)))) {
      assert(!boxes.intersects(1, q), q)
      assert(boxes.checks(1, q) == 0L, q)
    }
  }

  test("widen grows a box to the union") {
    val b = new RangeBoxes(2, 2)
    b.fit(0, data, 0, 1) // a = 10, b = 5
    b.fit(1, data, 1, 2) // a = 20, b = -5
    assert(b.checks(0, RangeQuery.of(2, 0 -> (10L, 10L))) == 0L)
    b.widen(0, 1)
    assert(b.checks(0, RangeQuery.of(2, 0 -> (10L, 20L), 1 -> (-5L, 5L))) == 0L)
    assert(b.checks(0, RangeQuery.of(2, 0 -> (10L, 19L))) == 1L && b.checks(0, RangeQuery.of(2, 1 -> (-4L, 5L))) == 2L)
  }
}
