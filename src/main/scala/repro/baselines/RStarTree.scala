package repro.baselines

import repro.store.{ColumnStore, IndexResult, MultiDimIndex, RangeQuery, Sort}

/** Baseline 8: read-optimized bulk-loaded R-tree.
  *
  * The paper benchmarks libspatialindex's R*-tree (C++); as a substitute we
  * bulk-load an R-tree with Sort-Tile-Recursive (STR) packing — the standard
  * read-optimized bulk-loading scheme — over the same column store. Leaf
  * pages hold `pageSize` points; internal nodes have fan-out 16 with
  * minimum bounding rectangles, and queries descend intersecting MBRs.
  */
final class RStarTree(
    store: ColumnStore,
    dimOrder: Array[Int],
    pageSize: Int = 1024,
    aggDim: Int = 0
) extends MultiDimIndex {

  val name = "R* tree"

  private val d = store.numDims
  private final val Fanout = 16
  private var tree: RangeTree = _

  val buildNanos: Long = {
    val t0 = System.nanoTime()
    val n = store.numRows
    val perm = Array.range(0, n)

    // STR tiling: sort by the current dimension, cut into slabs sized so the
    // remaining dimensions can tile each slab into ~equal pages.
    def tile(s: Int, e: Int, pos: Int): Unit = if (e - s > pageSize && pos < d) {
      Sort.byKey(perm, store.columns(dimOrder(pos)), s, e)
      val remaining = d - pos
      val nPages = math.max(1, math.ceil((e - s).toDouble / pageSize).toInt)
      val slabs = math.max(1, math.ceil(math.pow(nPages.toDouble, 1.0 / remaining)).toInt)
      val slabSize = math.max(1, math.ceil((e - s).toDouble / slabs).toInt)
      var a = s
      while (a < e) {
        val b = math.min(e, a + slabSize)
        tile(a, b, pos + 1)
        a = b
      }
    }
    tile(0, n, 0)

    // leaves over consecutive pages (one empty leaf for an empty store),
    // then pack upward with fan-out `Fanout`
    var level = Array.tabulate(math.max(1, (n + pageSize - 1) / pageSize)) { i =>
      RangeNode.leaf(i * pageSize, math.min(n, (i + 1) * pageSize))
    }
    while (level.length > 1)
      level = level.grouped(Fanout).map(g => new RangeNode(g.head.s, g.last.e, g)).toArray
    tree = new RangeTree(store, perm, level(0), aggDim)
    System.nanoTime() - t0
  }

  def query(q: RangeQuery): IndexResult = tree.query(q)

  def sizeBytes: Long = tree.numNodes.toLong * (d.toLong * 16 + 32)

  /** Number of leaf pages (tests). */
  def numLeaves: Int = tree.numLeaves
}
