package repro.core

import repro.store.ColumnStore

/** Non-learned flattening for the tests: equal-width columns between each
  * dimension's min and max (the §3 basic grid, without flattening).
  */
final class LinearFlattening private (mins: Array[Long], ranges: Array[Double]) extends Flattening {
  def frac(dim: Int, v: Long): Double = {
    val f = (v.toDouble - mins(dim).toDouble) / ranges(dim)
    if (f < 0) 0.0 else if (f > 1) 1.0 else f
  }
  def sizeBytes: Long = mins.length.toLong * 16
}

object LinearFlattening {
  def fromStore(store: ColumnStore): LinearFlattening = {
    val mins = Array.tabulate(store.numDims)(store.min)
    val ranges = Array.tabulate(store.numDims) { d =>
      math.max(1.0, store.max(d).toDouble - mins(d).toDouble + 1.0)
    }
    new LinearFlattening(mins, ranges)
  }
}
