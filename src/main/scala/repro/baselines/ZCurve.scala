package repro.baselines

import repro.model.SearchUtil
import repro.store.{ColumnStore, RangeQuery, Sort}

/** Z-order (Morton) curve machinery shared by the Z-order index and UB-tree
  * (paper §7.2 and Appendix A): d dimensions, ⌊64/d⌋ bits each, interleaved
  * so that dimension 0's least-significant bit is the code's least-significant
  * bit (the paper puts the most selective dimension's LSB at the LSB).
  *
  * Also implements BIGMIN (Tropf–Herzog): the smallest Z-code inside a query
  * box that is greater than a given code — the UB-tree's "skip ahead".
  */
final class ZCurve(val d: Int) {
  require(d >= 1 && d <= 32, s"unsupported dimensionality $d")

  /** Bits per dimension. The paper uses ⌊64/d⌋; we cap the total at 63 bits
    * so codes stay non-negative (signed-long comparisons order them).
    */
  val bits: Int = 63 / d

  /** Total bits in a code. */
  val totalBits: Int = bits * d

  /** Largest representable coordinate. */
  val maxCoord: Long = (1L << bits) - 1

  // For code bit p (= j*d + i): mask of the *lower* bits of the same
  // dimension (p-d, p-2d, ...), used by BIGMIN's load operations.
  private val lowerSameDim: Array[Long] = Array.tabulate(totalBits) { p =>
    var m = 0L
    var q = p - d
    while (q >= 0) { m |= 1L << q; q -= d }
    m
  }

  /** Interleave coordinates (each in [0, maxCoord]) into a Z-code. */
  def encode(coords: Array[Long]): Long = {
    var z = 0L
    var i = 0
    while (i < d) {
      val c = coords(i)
      var j = 0
      while (j < bits) {
        z |= ((c >>> j) & 1L) << (j * d + i)
        j += 1
      }
      i += 1
    }
    z
  }

  /** De-interleave the coordinate of dimension `i` from a Z-code. */
  def decode(z: Long, i: Int): Long = {
    var c = 0L
    var j = 0
    while (j < bits) {
      c |= ((z >>> (j * d + i)) & 1L) << j
      j += 1
    }
    c
  }

  /** Whether `z` lies within the box spanned per dimension by
    * `[qlo(i), qhi(i)]` (quantized coordinates).
    */
  def inBox(z: Long, qlo: Array[Long], qhi: Array[Long]): Boolean = {
    var i = 0
    while (i < d) {
      val c = decode(z, i)
      if (c < qlo(i) || c > qhi(i)) return false
      i += 1
    }
    true
  }

  /** Smallest Z-code in the box `[zmin, zmax]` (codes of the box's corners)
    * that is strictly greater than `z`. Returns -1 if no such code exists.
    * Precondition: `z` is not inside the box (else the caller should simply
    * advance), `zmin <= zmax` are corner codes of a valid box.
    */
  def bigmin(z: Long, zmin0: Long, zmax0: Long): Long = {
    var zmin = zmin0
    var zmax = zmax0
    var big = -1L
    var p = totalBits - 1
    while (p >= 0) {
      val zb = (z >>> p) & 1L
      val nb = (zmin >>> p) & 1L
      val xb = (zmax >>> p) & 1L
      val pat = (zb << 2) | (nb << 1) | xb
      pat match {
        case 0L => () // 000
        case 1L => // 001: split the box at this bit
          big = (zmin | (1L << p)) & ~lowerSameDim(p)
          zmax = (zmax & ~(1L << p)) | lowerSameDim(p)
        case 3L => // 011
          return zmin
        case 4L => // 100
          return big
        case 5L => // 101
          zmin = (zmin | (1L << p)) & ~lowerSameDim(p)
        case 7L => () // 111
        case _ => // 010 / 110: min bit > max bit — impossible for a valid box
          throw new IllegalStateException(s"invalid BIGMIN state pat=$pat at bit $p")
      }
      p -= 1
    }
    big
  }
}

/** Monotone equal-width quantizer from raw values to `[0, levels-1]`. */
final class Quantizer(mins: Array[Long], maxs: Array[Long], levels: Long) {
  private val scales: Array[Double] = Array.tabulate(mins.length) { i =>
    val r = maxs(i).toDouble - mins(i).toDouble
    if (r <= 0) 0.0 else (levels - 1).toDouble / r
  }

  /** Quantize value `v` of dimension `i` (clamped to the data range). */
  def quantize(i: Int, v: Long): Long = {
    if (v <= mins(i)) return 0L
    if (v >= maxs(i)) return levels - 1
    ((v.toDouble - mins(i).toDouble) * scales(i)).toLong
  }
}

object Quantizer {
  def fromStore(store: ColumnStore, dims: Array[Int], levels: Long): Quantizer =
    new Quantizer(dims.map(store.min), dims.map(store.max), levels)
}

/** The Z-order layout the Z-order index and the UB-tree share (paper
  * Appendix A): each row's values, quantized per dimension, are interleaved
  * into a Z-code with `dimOrder(0)` at the code's LSB, and rows are sorted by
  * code. A query box maps to its quantized corners, whose codes bound the
  * physical span `[s, e)` that can hold matching rows.
  *
  * @param dimOrder dimensions ordered by decreasing selectivity
  */
final class ZLayout(store: ColumnStore, dimOrder: Array[Int]) {
  require(dimOrder.sorted.sameElements(Array.range(0, store.numDims)), "dimOrder must be a permutation")

  private val d = store.numDims
  val curve = new ZCurve(d)
  private val quant = Quantizer.fromStore(store, dimOrder, curve.maxCoord + 1)

  /** The Z-code of each row of `data`, non-decreasing. */
  val zvals: Array[Long] = codes()

  /** The store in Z order. */
  val data: ColumnStore = store.reorder(Sort.order(zvals))
  java.util.Arrays.sort(zvals) // now in the order of `data`

  private def codes(): Array[Long] = {
    val coords = new Array[Long](d)
    Array.tabulate(store.numRows) { i =>
      var k = 0
      while (k < d) { coords(k) = quant.quantize(k, store(dimOrder(k), i)); k += 1 }
      curve.encode(coords)
    }
  }

  /** `q`'s box in quantized curve coordinates, its corner codes, and the
    * rows `[s, e)` of `data` whose codes lie between them (none when `q` is
    * empty).
    */
  def span(q: RangeQuery): ZSpan = {
    val qlo = new Array[Long](d)
    val qhi = new Array[Long](d)
    var k = 0
    while (k < d) {
      val dim = dimOrder(k)
      qlo(k) = if (q.lo(dim) == Long.MinValue) 0L else quant.quantize(k, q.lo(dim))
      qhi(k) = if (q.hi(dim) == Long.MaxValue) curve.maxCoord else quant.quantize(k, q.hi(dim))
      k += 1
    }
    val zlo = curve.encode(qlo)
    val zhi = curve.encode(qhi)
    if (q.isEmpty) new ZSpan(qlo, qhi, zlo, zhi, 0, 0) // an inverted range holds no row
    else new ZSpan(qlo, qhi, zlo, zhi,
      SearchUtil.binaryLowerBound(zvals, zlo, 0, zvals.length),
      SearchUtil.binaryUpperBound(zvals, zhi, 0, zvals.length))
  }
}

/** A query's quantized box `[qlo, qhi]`, its corner codes `zlo`/`zhi`, and
  * the physical span `[s, e)` between them.
  */
final class ZSpan(val qlo: Array[Long], val qhi: Array[Long], val zlo: Long, val zhi: Long,
                  val s: Int, val e: Int)
