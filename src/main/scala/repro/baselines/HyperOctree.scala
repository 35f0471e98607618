package repro.baselines

import repro.store.{ColumnStore, IndexResult, MultiDimIndex, RangeQuery}

import scala.collection.mutable.ArrayBuffer

/** Baseline 6 (paper §7.2, Appendix A): hyperoctree. Space is recursively
  * halved at each dimension's midpoint (2^d children per node) until a node
  * holds at most `pageSize` points or is 16 levels deep. Points of a leaf
  * are stored contiguously in depth-first order.
  */
final class HyperOctree(
    store: ColumnStore,
    pageSize: Int = 1024,
    aggDim: Int = 0
) extends MultiDimIndex {
  require(store.numDims <= 16, "2^d fan-out: d must be <= 16")

  val name = "Hyperoctree"

  private val d = store.numDims
  private final val MaxDepth = 16
  private var tree: RangeTree = _

  val buildNanos: Long = {
    val t0 = System.nanoTime()
    val perm = new Array[Int](store.numRows)
    var write = 0

    def buildNode(idx: Array[Int], lo: Array[Long], hi: Array[Long], depth: Int): RangeNode = {
      val s = write
      val degenerate = (0 until d).forall(k => lo(k) >= hi(k))
      if (idx.length <= pageSize || depth >= MaxDepth || degenerate) {
        System.arraycopy(idx, 0, perm, write, idx.length)
        write += idx.length
        RangeNode.leaf(s, write)
      } else {
        val mid = Array.tabulate(d)(k => lo(k) + (hi(k) - lo(k)) / 2)
        // bucket points by octant
        val buckets = Array.fill(1 << d)(new ArrayBuffer[Int]())
        var i = 0
        while (i < idx.length) {
          val row = idx(i)
          var oct = 0
          var k = 0
          while (k < d) {
            if (store(k, row) > mid(k)) oct |= 1 << k
            k += 1
          }
          buckets(oct) += row
          i += 1
        }
        val children = new ArrayBuffer[RangeNode]()
        var oct = 0
        while (oct < (1 << d)) {
          if (buckets(oct).nonEmpty) {
            val cLo = new Array[Long](d)
            val cHi = new Array[Long](d)
            var k = 0
            while (k < d) {
              if ((oct & (1 << k)) == 0) { cLo(k) = lo(k); cHi(k) = mid(k) }
              else { cLo(k) = math.min(mid(k) + 1, hi(k)); cHi(k) = hi(k) }
              k += 1
            }
            children += buildNode(buckets(oct).toArray, cLo, cHi, depth + 1)
          }
          oct += 1
        }
        new RangeNode(s, write, children.toArray)
      }
    }

    val root = buildNode(Array.range(0, store.numRows), Array.tabulate(d)(store.min),
      Array.tabulate(d)(store.max), 0)
    tree = new RangeTree(store, perm, root, aggDim)
    System.nanoTime() - t0
  }

  def query(q: RangeQuery): IndexResult = tree.query(q)

  def sizeBytes: Long =
    // internal nodes: child array + box; leaves: range + box
    tree.numNodes.toLong * (1L << d) * 8 / 2 + tree.numLeaves.toLong * (8 + d.toLong * 16)

  /** Number of leaves (tests). */
  def numLeaves: Int = tree.numLeaves
}
