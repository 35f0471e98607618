package repro.baselines

import repro.store.{ColumnStore, IndexResult, MultiDimIndex, RangeQuery}

/** Baseline 7 (paper §7.2, Appendix A): k-d tree. Space is recursively
  * partitioned at the median of each dimension, dimensions cycled round-robin
  * in order of decreasing selectivity; a dimension whose remaining points all
  * share one value is skipped. Leaves hold at most `pageSize` points,
  * stored contiguously in in-order traversal order.
  *
  * @param dimOrder dimensions by decreasing selectivity
  */
final class KdTree(
    store: ColumnStore,
    dimOrder: Array[Int],
    pageSize: Int = 1024,
    aggDim: Int = 0
) extends MultiDimIndex {

  val name = "K-d tree"

  private val d = store.numDims
  private var tree: RangeTree = _

  val buildNanos: Long = {
    val t0 = System.nanoTime()
    val perm = new Array[Int](store.numRows)
    var write = 0

    def makeLeaf(idx: Array[Int]): RangeNode = {
      val s = write
      System.arraycopy(idx, 0, perm, write, idx.length)
      write += idx.length
      RangeNode.leaf(s, write)
    }

    def buildNode(idx: Array[Int], orderPos: Int): RangeNode = {
      if (idx.length <= pageSize) return makeLeaf(idx)
      // find the next usable dimension (not all-equal), round robin
      var tried = 0
      var pos = orderPos
      while (tried < d) {
        val dim = dimOrder(pos % d)
        val vals = idx.map(store(dim, _))
        java.util.Arrays.sort(vals)
        if (vals(0) != vals(vals.length - 1)) {
          var splitVal = vals(vals.length / 2)
          // left = strictly-less; nudge up if the median equals the minimum
          if (splitVal == vals(0)) splitVal += 1
          val (l, r) = idx.partition(row => store(dim, row) < splitVal)
          if (l.nonEmpty && r.nonEmpty) {
            val s = write
            val left = buildNode(l, pos + 1)
            val right = buildNode(r, pos + 1)
            return new RangeNode(s, write, Array(left, right))
          }
        }
        pos += 1
        tried += 1
      }
      makeLeaf(idx) // all dimensions degenerate
    }

    tree = new RangeTree(store, perm, buildNode(Array.range(0, store.numRows), 0), aggDim)
    System.nanoTime() - t0
  }

  def query(q: RangeQuery): IndexResult = tree.query(q)

  def sizeBytes: Long = tree.numNodes.toLong * (d.toLong * 16 + 32)

  /** Number of leaves (tests). */
  def numLeaves: Int = tree.numLeaves
}
