package repro

import repro.core.{CdfFlattening, FloodIndex, Layout}
import repro.model.{Plm, SearchUtil}
import repro.store.ColumnStore

import java.io.PrintWriter
import scala.util.Random

/** Times Flood's two ways of refining a cell on the sort dimension, per
  * refined cell, at cell sizes from 2^7 rows up to the whole store:
  *
  * {{{
  * sbt "Test/runMain repro.RefineCrossover [rows] [passes]"
  * }}}
  *
  * The store (default 2^21 rows, so its 16 MB sort column is larger than
  * L2) has a uniform grid column and a TPC-H `orderkey`-like sort column
  * (uniform over `rows / 4` keys, so about four rows share a key). For each
  * size `2^k` a `FloodIndex` with one grid dimension of `rows / 2^k`
  * columns lays the store out; every query filters only the sort dimension,
  * so every cell is refined. The two ways, on the index's `data` and
  * `cellTable`, are the per-cell PLM (`Plm.build`, δ = 50) with
  * `SearchUtil.lowerBoundRange`/`upperBoundRange`, and
  * `SearchUtil.binaryLowerBound`/`binaryUpperBound`. Both must give every
  * cell the same `(s, e)`. Each pass times both ways over the same queries,
  * in alternating order; a line reports the median ns per cell of `passes`
  * passes (default 7). The crossover is the smallest size from which the
  * PLM is faster at every larger size measured.
  */
object RefineCrossover {

  final case class Row(rowsPerCell: Int, cells: Int, plmNsPerCell: Double, binaryNsPerCell: Double) {
    def plmFaster: Boolean = plmNsPerCell < binaryNsPerCell
  }

  def main(args: Array[String]): Unit = {
    val rows = if (args.length > 0) args(0).toInt else 1 << 21
    val passes = if (args.length > 1) args(1).toInt else 7
    val out = new PrintWriter(System.out)
    val rs = run(rows, 7 to 31 - Integer.numberOfLeadingZeros(rows), passes, refinesPerPass = 1 << 21, out)
    out.println(crossover(rs).fold("crossover: PLM faster at no measured size")(c => s"crossover: $c rows per cell"))
    out.println(s"FloodIndex's PLM size rule: ${FloodIndex.PlmMinRows} rows per cell")
    out.flush()
  }

  /** The smallest rows-per-cell from which the PLM wins at every larger size. */
  def crossover(rs: Seq[Row]): Option[Int] =
    rs.indices.find(i => rs.drop(i).forall(_.plmFaster)).map(rs(_).rowsPerCell)

  /** Measure cells of `2^k` rows for each `k` in `logSizes` on a `rows`-row
    * store, timing about `refinesPerPass` cell refinements per pass.
    */
  def run(rows: Int, logSizes: Range, passes: Int, refinesPerPass: Int, out: PrintWriter): Seq[Row] = {
    val rng = new Random(1401)
    val keys = rows / 4 + 1
    val store = ColumnStore.of(
      "grid" -> Array.fill(rows)(rng.nextInt(1000000).toLong),
      "orderkey" -> Array.fill(rows)(rng.nextInt(keys).toLong))
    val flat = CdfFlattening.train(store)
    out.println(f"${"rows/cell"}%10s ${"cells"}%7s ${"queries"}%8s ${"PLM ns/cell"}%12s ${"binary ns/cell"}%15s faster")
    logSizes.filter(k => (rows >> k) >= 1).map { k =>
      val cols = rows >> k
      val idx = new FloodIndex(store, Layout(Array(0, 1), Array(cols)), flat, aggDim = 1)
      val sortCol = idx.data.columns(1)
      val ct = idx.cellTable
      val plms = Array.tabulate(cols)(c => Plm.build(sortCol, ct(c), ct(c + 1), 50.0))
      // 1%-wide ranges of the key domain, as in tpch-scan's orderkey-only queries
      val nq = math.max(16, refinesPerPass / cols)
      val lo = Array.fill(nq)(rng.nextInt(keys).toLong)
      val hi = lo.map(_ + keys / 100)
      checkSame(sortCol, ct, plms, lo, hi)
      val refines = nq.toDouble * cols
      val plmNs = new Array[Double](passes)
      val binNs = new Array[Double](passes)
      sink += plmPass(sortCol, ct, plms, lo, hi) + binaryPass(sortCol, ct, lo, hi) // warm-up
      for (p <- 0 until passes) {
        def timeP(): Unit = { val t = System.nanoTime(); sink += plmPass(sortCol, ct, plms, lo, hi); plmNs(p) = (System.nanoTime() - t) / refines }
        def timeB(): Unit = { val t = System.nanoTime(); sink += binaryPass(sortCol, ct, lo, hi); binNs(p) = (System.nanoTime() - t) / refines }
        if (p % 2 == 0) { timeP(); timeB() } else { timeB(); timeP() }
      }
      val row = Row(rows / cols, cols, median(plmNs), median(binNs))
      out.println(f"${row.rowsPerCell}%10d ${row.cells}%7d ${nq}%8d ${row.plmNsPerCell}%12.1f ${row.binaryNsPerCell}%15.1f " +
        (if (row.plmFaster) "PLM" else "binary"))
      out.flush()
      row
    }
  }

  // the passes' checksums, kept so that no pass is optimised away
  @volatile private var sink = 0L

  private def median(xs: Array[Double]): Double = { val s = xs.sorted; s(s.length / 2) }

  /** Refine every cell for every query through the cell's PLM, as
    * `FloodIndex` does; returns a checksum of the bounds.
    */
  private def plmPass(sortCol: Array[Long], ct: Array[Int], plms: Array[Plm], lo: Array[Long], hi: Array[Long]): Long = {
    var sum = 0L
    var q = 0
    while (q < lo.length) {
      var c = 0
      while (c < plms.length) { sum += plmBounds(sortCol, ct, plms, c, lo(q), hi(q)); c += 1 }
      q += 1
    }
    sum
  }

  private def binaryPass(sortCol: Array[Long], ct: Array[Int], lo: Array[Long], hi: Array[Long]): Long = {
    var sum = 0L
    var q = 0
    while (q < lo.length) {
      var c = 0
      while (c < ct.length - 1) { sum += binaryBounds(sortCol, ct, c, lo(q), hi(q)); c += 1 }
      q += 1
    }
    sum
  }

  /** A cell's refined `(s, e)`, packed as `s << 32 | e`. */
  @inline private def plmBounds(sortCol: Array[Long], ct: Array[Int], plms: Array[Plm], c: Int, lo: Long, hi: Long): Long = {
    val plm = plms(c)
    var s = ct(c)
    var e = ct(c + 1)
    s = SearchUtil.lowerBoundRange(sortCol, lo, ct(c) + plm.predict(lo), s, e)
    if (s < e) e = SearchUtil.upperBoundRange(sortCol, hi, ct(c) + plm.predict(hi), s, e)
    s.toLong << 32 | e
  }

  @inline private def binaryBounds(sortCol: Array[Long], ct: Array[Int], c: Int, lo: Long, hi: Long): Long = {
    var s = ct(c)
    var e = ct(c + 1)
    s = SearchUtil.binaryLowerBound(sortCol, lo, s, e)
    if (s < e) e = SearchUtil.binaryUpperBound(sortCol, hi, s, e)
    s.toLong << 32 | e
  }

  private def checkSame(sortCol: Array[Long], ct: Array[Int], plms: Array[Plm], lo: Array[Long], hi: Array[Long]): Unit =
    for (q <- lo.indices; c <- plms.indices) {
      val p = plmBounds(sortCol, ct, plms, c, lo(q), hi(q))
      val b = binaryBounds(sortCol, ct, c, lo(q), hi(q))
      require(p == b, s"cell $c query [${lo(q)}, ${hi(q)}]: PLM gives (${p >>> 32}, ${p.toInt}), " +
        s"binary search (${b >>> 32}, ${b.toInt})")
    }
}
