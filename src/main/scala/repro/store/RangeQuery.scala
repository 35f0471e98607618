package repro.store

/** A conjunctive multi-dimensional range filter (paper §3): the intersection
  * of per-dimension inclusive ranges `[lo(i), hi(i)]` defines a
  * hyper-rectangle. Unfiltered dimensions use `(Long.MinValue, Long.MaxValue)`.
  * Equality predicates are ranges with `lo == hi`.
  */
final case class RangeQuery(lo: Array[Long], hi: Array[Long]) {
  require(lo.length == hi.length, "lo/hi arity mismatch")
  require(lo.length <= 64, "a query's dimensions must fit a 64-bit mask")

  /** Number of dimensions the query is defined over. */
  def numDims: Int = lo.length

  /** Throws `IllegalArgumentException` unless the query has `d` dimensions
    * (it builds no message closure, so the query path allocates nothing).
    */
  def requireDims(d: Int): Unit =
    if (numDims != d) throw new IllegalArgumentException(s"a $numDims-dimension query on a $d-dimension store")

  /** Whether dimension `d` carries a filter. */
  @inline def filters(d: Int): Boolean =
    lo(d) != Long.MinValue || hi(d) != Long.MaxValue

  /** Dimensions that carry a filter. */
  lazy val filteredDims: Array[Int] = (0 until numDims).filter(filters).toArray

  /** `filteredDims` as a bit mask: bit k is set when dimension k is filtered. */
  lazy val filteredMask: Long = filteredDims.foldLeft(0L)((m, d) => m | 1L << d)

  /** Whether some range is inverted (`lo > hi`), so no row can match. */
  def isEmpty: Boolean = {
    var d = 0
    while (d < numDims && lo(d) <= hi(d)) d += 1
    d < numDims
  }

  /** Whether value `v` passes dimension `d`'s filter. */
  @inline def contains(d: Int, v: Long): Boolean = v >= lo(d) && v <= hi(d)

  /** Whether the full row passes all filters. */
  def matchesRow(store: ColumnStore, row: Int): Boolean = {
    val fd = filteredDims
    var i = 0
    while (i < fd.length) {
      val d = fd(i)
      val v = store(d, row)
      if (v < lo(d) || v > hi(d)) return false
      i += 1
    }
    true
  }

  override def toString: String = {
    val parts = (0 until numDims).collect {
      case d if filters(d) => s"d$d∈[${lo(d)},${hi(d)}]"
    }
    s"RangeQuery(${parts.mkString(" ∧ ")})"
  }
}

object RangeQuery {

  /** A query with no filters (full scan). */
  def full(d: Int): RangeQuery =
    RangeQuery(Array.fill(d)(Long.MinValue), Array.fill(d)(Long.MaxValue))

  /** A query filtering the listed dimensions with the given inclusive ranges. */
  def of(d: Int, ranges: (Int, (Long, Long))*): RangeQuery = {
    val q = full(d)
    for ((dim, (l, h)) <- ranges) { q.lo(dim) = l; q.hi(dim) = h }
    q
  }
}
