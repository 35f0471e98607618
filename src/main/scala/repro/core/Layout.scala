package repro.core

import repro.store.{Grid, RangeQuery}

/** A Flood layout `L = (O, {c_i})` (paper §4.1): `order` is a permutation of
  * the dataset's dimensions whose *last* entry is the sort dimension; the
  * first `d-1` entries form the grid, with `cols(i)` columns for dimension
  * `order(i)`.
  */
final case class Layout(order: Array[Int], cols: Array[Int]) {
  require(order.length == cols.length + 1, "cols must cover all but the sort dimension")
  require(order.sorted.sameElements(order.indices), "order must be a permutation of 0 until d")
  require(cols.forall(_ >= 1), "each grid dimension needs at least one column")

  /** Total number of dimensions. */
  def d: Int = order.length

  /** The sort dimension (last in the ordering). */
  def sortDim: Int = order(d - 1)

  /** The grid dimensions, in order. */
  def gridDims: Array[Int] = order.take(d - 1)

  /** Total number of grid cells. */
  def numCells: Long = cols.foldLeft(1L)(_ * _)

  /** Mixed-radix strides: `cellId = Σ coord(i) * stride(i)`; the first grid
    * dimension is most significant, matching the paper's depth-first cell
    * traversal order.
    */
  def strides: Array[Long] = Grid.strides(cols)

  /** Projection (paper §3.2): the column range of each grid dimension that
    * the rectangle of `q` meets. Points and bounds go through the same
    * monotone flattening, so these ranges are exact. An empty query (some
    * `lo > hi`) meets no cell.
    */
  def project(flattening: Flattening, q: RangeQuery): Projection = {
    val g = d - 1
    val lo = new Array[Int](g)
    val hi = new Array[Int](g)
    var n = if (q.isEmpty) 0L else 1L
    var i = 0
    while (i < g) {
      val dim = order(i)
      if (q.filters(dim)) {
        lo(i) = flattening.colOf(dim, q.lo(dim), cols(i))
        hi(i) = flattening.colOf(dim, q.hi(dim), cols(i))
      } else hi(i) = cols(i) - 1
      n *= hi(i) - lo(i) + 1
      i += 1
    }
    new Projection(lo, hi, n)
  }

  override def toString: String =
    s"Layout(grid=${gridDims.zip(cols).map { case (d, c) => s"d$d×$c" }.mkString(",")}, sort=d$sortDim)"
}

/** The cells a query rectangle meets: the inclusive column range
  * `[lo(i), hi(i)]` of each grid dimension and their number `numCells`
  * (the cost model's N_c). An empty query has `numCells` 0 and its ranges
  * are not used.
  */
final class Projection(val lo: Array[Int], val hi: Array[Int], val numCells: Long) {

  def isEmpty: Boolean = numCells == 0

  /** Walk the met cells in ascending cell-id order. */
  def walk(strides: Array[Long]): Grid.Walk =
    if (isEmpty) Grid.emptyWalk else new Grid.Walk(strides, lo, hi)
}

object Layout {

  /** A uniform default: given a dimension ordering, give every grid dimension
    * the same number of columns so the total cell count is ~`targetCells`.
    */
  def uniform(order: Array[Int], targetCells: Long): Layout = {
    val g = order.length - 1
    val c =
      if (g == 0) Array.empty[Int]
      else {
        val per = math.max(1, math.round(math.pow(targetCells.toDouble, 1.0 / g)).toInt)
        Array.fill(g)(per)
      }
    Layout(order, c)
  }
}
