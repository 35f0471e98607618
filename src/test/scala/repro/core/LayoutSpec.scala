package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.store.{ColumnStore, RangeQuery}

import scala.util.Random

class LayoutSpec extends AnyFunSuite {

  test("basic accessors") {
    val l = Layout(Array(2, 0, 1), Array(4, 8))
    assert(l.d == 3)
    assert(l.sortDim == 1)
    assert(l.gridDims.toSeq == Seq(2, 0))
    assert(l.numCells == 32)
  }

  test("strides: first grid dim most significant") {
    val l = Layout(Array(0, 1, 2, 3), Array(2, 3, 5))
    assert(l.strides.toSeq == Seq(15L, 5L, 1L))
  }

  test("cell ids cover [0, numCells) exactly") {
    val l = Layout(Array(0, 1, 2), Array(3, 4))
    val st = l.strides
    val ids = for (a <- 0 until 3; b <- 0 until 4) yield a * st(0) + b * st(1)
    assert(ids.sorted == (0L until 12L))
  }

  test("single-dimension layout (pure clustered index) has one cell") {
    val l = Layout(Array(0), Array.empty)
    assert(l.numCells == 1)
    assert(l.gridDims.isEmpty)
    assert(l.sortDim == 0)
  }

  test("uniform layout hits the target cell count approximately") {
    val l = Layout.uniform(Array(0, 1, 2, 3), targetCells = 1000)
    assert(l.numCells >= 500 && l.numCells <= 2000)
  }

  test("uniform layout with one dimension") {
    val l = Layout.uniform(Array(0), targetCells = 100)
    assert(l.numCells == 1)
  }

  test("rejects non-permutations") {
    intercept[IllegalArgumentException](Layout(Array(0, 0), Array(2)))
  }

  test("rejects zero columns") {
    intercept[IllegalArgumentException](Layout(Array(0, 1), Array(0)))
  }

  test("rejects arity mismatch") {
    intercept[IllegalArgumentException](Layout(Array(0, 1, 2), Array(2)))
  }

  /** Ids of the cells of `l` met by the walk of `q`'s projection. */
  private def walked(l: Layout, flat: Flattening, q: RangeQuery): Seq[Long] = {
    val w = l.project(flat, q).walk(l.strides)
    val ids = Seq.newBuilder[Long]
    while (!w.done) { ids += w.id; w.next() }
    ids.result()
  }

  test("projection walk: ascending ids of exactly the cells whose column box meets the query") {
    val rng = new Random(11)
    val d = 4
    val store = ColumnStore.of(Seq.tabulate(d)(k => s"c$k" -> Array.fill(500)(rng.nextInt(100).toLong)): _*)
    for (flat <- Seq(LinearFlattening.fromStore(store), CdfFlattening.train(store)); _ <- 0 until 40) {
      val l = Layout(rng.shuffle((0 until d).toList).toArray, Array.fill(d - 1)(1 + rng.nextInt(6)))
      val q = RangeQuery.full(d)
      for (dim <- 0 until d if rng.nextInt(3) > 0) {
        q.lo(dim) = rng.nextInt(120) - 10L
        q.hi(dim) = q.lo(dim) + rng.nextInt(70) - 8L // sometimes inverted
      }
      // brute force: a cell's column of dimension `dim` meets [lo, hi] when
      // some value in the range flattens into it
      val st = l.strides
      val expected = (0L until l.numCells).filter { id =>
        !q.isEmpty && l.gridDims.indices.forall { i =>
          val dim = l.gridDims(i)
          val c = ((id / st(i)) % l.cols(i)).toInt
          !q.filters(dim) || (q.lo(dim) to q.hi(dim)).exists(v => flat.colOf(dim, v, l.cols(i)) == c)
        }
      }
      val ids = walked(l, flat, q)
      assert(ids == expected, s"$l on $q")
      assert(ids.zip(ids.drop(1)).forall { case (a, b) => a < b })
      assert(l.project(flat, q).numCells == ids.length)
    }
  }

  test("projection of a one-dimension layout walks cell 0, or nothing for an empty query") {
    val store = ColumnStore.of("a" -> Array(1L, 5L, 9L))
    val l = Layout(Array(0), Array.empty)
    val flat = CdfFlattening.train(store)
    assert(walked(l, flat, RangeQuery.full(1)) == Seq(0L))
    assert(walked(l, flat, RangeQuery.of(1, 0 -> (2L, 4L))) == Seq(0L))
    assert(walked(l, flat, RangeQuery.of(1, 0 -> (4L, 2L))).isEmpty)
    assert(l.project(flat, RangeQuery.of(1, 0 -> (4L, 2L))).numCells == 0)
  }
}
