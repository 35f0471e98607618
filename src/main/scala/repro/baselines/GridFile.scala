package repro.baselines

import repro.store.{Candidates, ColumnStore, Grid, IndexResult, MultiDimIndex, RangeQuery}

import scala.collection.mutable.ArrayBuffer

/** Thrown when Grid File construction explodes (the paper omits Grid File
  * results that took over an hour on heavily skewed data; we bound the block
  * count instead).
  */
final class GridFileAborted(msg: String) extends RuntimeException(msg)

/** Baseline 3 (paper §7.2, Appendix A): Grid File [Nievergelt et al. 1984].
  *
  * The space is divided into *blocks* by per-dimension boundary lists
  * (linear scales); several adjacent blocks form a *bucket* whose points are
  * stored together, unsorted. The grid is built incrementally: each point is
  * added to its bucket; on overflow the bucket is split — along an existing
  * block boundary if it spans more than one block, otherwise by inserting a
  * new boundary at the midpoint of the bucket's extent along a round-robin
  * dimension. Unlike Flood, nothing adapts to the query workload.
  */
final class GridFile(
    store: ColumnStore,
    pageSize: Int = 1024,
    aggDim: Int = 0,
    blockCap: Long = 4_000_000L
) extends MultiDimIndex {

  val name = "Grid File"

  private val d = store.numDims

  private final class Bucket {
    val blockLo = new Array[Int](d)
    val blockHi = new Array[Int](d)
    var points = new ArrayBuffer[Int]()
  }

  private val dataMin: Array[Long] = Array.tabulate(d)(store.min)
  private val dataMax: Array[Long] = Array.tabulate(d)(store.max)
  private val boundaries: Array[ArrayBuffer[Long]] = Array.fill(d)(new ArrayBuffer[Long]())
  private val buckets = new ArrayBuffer[Bucket]()
  private var grid: Array[Int] = _       // block (mixed radix) -> bucket id
  private var counts: Array[Int] = _     // intervals per dimension
  private var str: Array[Long] = _       // mixed-radix strides of `counts`
  private var rr = 0                     // round-robin split dimension

  private var dataV: ColumnStore = _
  private var bucketStart: Array[Int] = _

  /** Interval index of value `v` in dimension `k`: #boundaries <= v. */
  private def ivalIdx(k: Int, v: Long): Int = {
    val b = boundaries(k)
    var lo = 0; var hi = b.length
    while (lo < hi) {
      val m = (lo + hi) >>> 1
      if (b(m) <= v) lo = m + 1 else hi = m
    }
    lo
  }

  private def totalBlocks(cnts: Array[Int]): Long = cnts.foldLeft(1L)(_ * _)

  /** Reassign every block inside `b`'s box to bucket id `id`. */
  private def paintBucket(b: Bucket, id: Int): Unit = {
    val w = new Grid.Walk(str, b.blockLo, b.blockHi)
    while (!w.done) { grid(w.id.toInt) = id; w.next() }
  }

  /** Split a bucket spanning >1 block along `dim` at its middle block. */
  private def splitAlongExisting(bId: Int, dim: Int): Unit = {
    val b = buckets(bId)
    val mid = b.blockLo(dim) + (b.blockHi(dim) - b.blockLo(dim)) / 2
    val nb = new Bucket
    Array.copy(b.blockLo, 0, nb.blockLo, 0, d)
    Array.copy(b.blockHi, 0, nb.blockHi, 0, d)
    nb.blockLo(dim) = mid + 1
    b.blockHi(dim) = mid
    val nbId = buckets.length
    buckets += nb
    paintBucket(nb, nbId)
    val keep = new ArrayBuffer[Int]()
    for (row <- b.points) {
      if (ivalIdx(dim, store(dim, row)) <= mid) keep += row else nb.points += row
    }
    b.points = keep
  }

  /** Insert a boundary in `dim` at value `v` (splits interval `p`). */
  private def insertBoundary(dim: Int, v: Long): Unit = {
    val p = ivalIdx(dim, v) // the interval being split; v becomes boundary at position p
    boundaries(dim).insert(p, v)
    val newCounts = counts.clone()
    newCounts(dim) += 1
    if (totalBlocks(newCounts) > blockCap)
      throw new GridFileAborted(s"block count ${totalBlocks(newCounts)} exceeds cap $blockCap")
    val newGrid = new Array[Int](totalBlocks(newCounts).toInt)
    // copy: new interval j in `dim` maps from old interval (j <= p ? j : j-1)
    val w = new Grid.Walk(Grid.strides(newCounts), new Array[Int](d), newCounts.map(_ - 1))
    while (!w.done) {
      var old = 0L
      var k = 0
      while (k < d) {
        val c = w.coord(k)
        old += (if (k == dim && c > p) c - 1 else c).toLong * str(k)
        k += 1
      }
      newGrid(w.id.toInt) = grid(old.toInt)
      w.next()
    }
    grid = newGrid
    counts = newCounts
    str = Grid.strides(counts)
    for (b <- buckets) {
      if (b.blockLo(dim) > p) b.blockLo(dim) += 1
      if (b.blockHi(dim) >= p) b.blockHi(dim) += 1
    }
  }

  /** Value extent of single-block bucket `b` along `dim`: [lo, hi). */
  private def blockExtent(b: Bucket, dim: Int): (Long, Long) = {
    val i = b.blockLo(dim)
    val lo = if (i == 0) dataMin(dim) else boundaries(dim)(i - 1)
    val hi = if (i == boundaries(dim).length) dataMax(dim) + 1 else boundaries(dim)(i)
    (lo, hi)
  }

  /** One split step; returns false if the bucket cannot be split further. */
  private def splitOnce(bId: Int): Boolean = {
    val b = buckets(bId)
    // 1) split along an existing boundary if the bucket spans >1 block
    var k = 0
    while (k < d) {
      val dim = (rr + k) % d
      if (b.blockHi(dim) > b.blockLo(dim)) {
        splitAlongExisting(bId, dim)
        rr = (dim + 1) % d
        return true
      }
      k += 1
    }
    // 2) single block: insert a midpoint boundary along a round-robin dim
    k = 0
    while (k < d) {
      val dim = (rr + k) % d
      val (lo, hi) = blockExtent(b, dim)
      if (hi - lo >= 2) {
        val mid = lo + (hi - lo) / 2
        insertBoundary(dim, mid)
        rr = (dim + 1) % d
        // the bucket now spans two blocks along `dim`
        splitAlongExisting(bId, dim)
        return true
      }
      k += 1
    }
    false
  }

  val buildNanos: Long = {
    val t0 = System.nanoTime()
    counts = Array.fill(d)(1)
    str = Grid.strides(counts)
    grid = Array(0)
    buckets += new Bucket
    var row = 0
    val n = store.numRows
    while (row < n) {
      var block = 0L
      var k = 0
      while (k < d) { block += ivalIdx(k, store(k, row)) * str(k); k += 1 }
      val bId = grid(block.toInt)
      buckets(bId).points += row
      var guard = 0
      var splittable = true
      while (splittable && buckets(bId).points.length > pageSize && guard < 64) {
        splittable = splitOnce(bId)
        guard += 1
      }
      row += 1
    }
    // finalize: lay buckets out contiguously
    bucketStart = new Array[Int](buckets.length + 1)
    val perm = new Array[Int](n)
    var w = 0
    var i = 0
    while (i < buckets.length) {
      bucketStart(i) = w
      for (r <- buckets(i).points) { perm(w) = r; w += 1 }
      i += 1
    }
    bucketStart(buckets.length) = w
    dataV = store.reorder(perm)
    dataV.buildPrefixSums(aggDim)
    System.nanoTime() - t0
  }

  def query(q: RangeQuery): IndexResult = {
    val t0 = System.nanoTime()
    val cands = new Candidates(dataV, q, aggDim)
    val iLo = new Array[Int](d)
    val iHi = new Array[Int](d)
    var k = 0
    while (k < d) {
      if (q.filters(k)) {
        iLo(k) = if (q.lo(k) == Long.MinValue) 0 else ivalIdx(k, q.lo(k))
        iHi(k) = if (q.hi(k) == Long.MaxValue) counts(k) - 1 else ivalIdx(k, q.hi(k))
      } else { iLo(k) = 0; iHi(k) = counts(k) - 1 }
      k += 1
    }
    val seen = new Array[Boolean](buckets.length)
    val w = new Grid.Walk(str, iLo, iHi)
    while (!w.done) {
      val bId = grid(w.id.toInt)
      if (!seen(bId)) { seen(bId) = true; cands.add(bucketStart(bId), bucketStart(bId + 1), q.filteredMask) }
      w.next()
    }
    cands.scan(t0)
  }

  def sizeBytes: Long =
    grid.length.toLong * 4 + boundaries.map(_.length.toLong * 8).sum +
      buckets.length.toLong * (d.toLong * 8 + 16)

  /** Number of buckets (tests). */
  def numBuckets: Int = buckets.length
}
