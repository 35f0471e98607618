package repro.store

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

class GridSpec extends AnyFunSuite {

  private def visit(w: Grid.Walk, axes: Int): Seq[(Long, Seq[Int])] = {
    val out = Seq.newBuilder[(Long, Seq[Int])]
    while (!w.done) { out += (w.id -> (0 until axes).map(w.coord)); w.next() }
    out.result()
  }

  test("strides: the first axis is most significant") {
    assert(Grid.strides(Array(2, 3, 5)).toSeq == Seq(15L, 5L, 1L))
    assert(Grid.strides(Array.emptyIntArray).isEmpty)
  }

  test("walk visits every coordinate of a box once, in ascending id order") {
    val rng = new Random(3)
    for (_ <- 0 until 50) {
      val axes = 1 + rng.nextInt(4)
      val counts = Array.fill(axes)(1 + rng.nextInt(5))
      val st = Grid.strides(counts)
      val lo = counts.map(rng.nextInt)
      val hi = Array.tabulate(axes)(k => lo(k) + rng.nextInt(counts(k) - lo(k)))
      val expected = (0L until counts.map(_.toLong).product).flatMap { id =>
        val c = (0 until axes).map(k => ((id / st(k)) % counts(k)).toInt)
        if ((0 until axes).forall(k => c(k) >= lo(k) && c(k) <= hi(k))) Some(id -> c) else None
      }
      assert(visit(new Grid.Walk(st, lo, hi), axes) == expected)
    }
  }

  test("an empty box visits nothing; a box with no axes visits id 0") {
    assert(visit(new Grid.Walk(Grid.strides(Array(4, 4)), Array(0, 3), Array(3, 2)), 2).isEmpty)
    assert(visit(Grid.emptyWalk, 0).isEmpty)
    assert(visit(new Grid.Walk(Array.emptyLongArray, Array.emptyIntArray, Array.emptyIntArray), 0) == Seq(0L -> Seq()))
  }
}
