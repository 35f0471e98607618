package repro.baselines

import repro.store.{Candidates, ColumnStore, IndexResult, RangeBoxes, RangeQuery}

/** A node of a space-partitioning tree: rows `[s, e)` of the tree's
  * reordered store, split in order among `children` (none for a leaf).
  */
private[baselines] final class RangeNode(val s: Int, val e: Int, val children: Array[RangeNode]) {
  private[baselines] var id = 0 // preorder position, which indexes the node's box
  def isLeaf: Boolean = children.isEmpty
}

private[baselines] object RangeNode {
  def leaf(s: Int, e: Int): RangeNode = new RangeNode(s, e, Array.empty)
}

/** What the k-d tree, the R-tree and the hyperoctree share (paper §7.2,
  * Appendix A): the store reordered by the tree's permutation, with the
  * prefix sums of its `aggDim` column, the tight min/max box of every node, and one descent that prunes nodes whose box
  * misses the query and checks a leaf's rows only on the dimensions whose
  * query range does not cover the leaf's box. Each tree supplies only its
  * partitioning rule — the permutation and the nodes over it.
  */
private[baselines] final class RangeTree(store: ColumnStore, perm: Array[Int], root: RangeNode, aggDim: Int) {

  val data: ColumnStore = store.reorder(perm)
  data.buildPrefixSums(aggDim)

  private val nodes: Array[RangeNode] = {
    val out = scala.collection.mutable.ArrayBuffer[RangeNode]()
    def walk(n: RangeNode): Unit = { n.id = out.length; out += n; n.children.foreach(walk) }
    walk(root)
    out.toArray
  }

  private val boxes: RangeBoxes = fitBoxes()

  // children follow their parent in preorder, so walking back to front
  // fits every child before it widens the parent
  private def fitBoxes(): RangeBoxes = {
    val b = new RangeBoxes(store.numDims, nodes.length)
    var i = nodes.length - 1
    while (i >= 0) {
      val n = nodes(i)
      if (n.isLeaf) b.fit(i, data, n.s, n.e) else n.children.foreach(c => b.widen(i, c.id))
      i -= 1
    }
    b
  }

  def numNodes: Int = nodes.length
  def numLeaves: Int = nodes.count(_.isLeaf)

  def query(q: RangeQuery): IndexResult = {
    val t0 = System.nanoTime()
    val cands = new Candidates(data, q, aggDim)
    def visit(n: RangeNode): Unit =
      if (boxes.intersects(n.id, q)) {
        if (n.isLeaf) cands.add(n.s, n.e, boxes.checks(n.id, q))
        else n.children.foreach(visit)
      }
    visit(root)
    cands.scan(t0)
  }
}
