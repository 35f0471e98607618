package repro

import repro.core.{CdfFlattening, FloodIndex, FloodStats, Layout}
import repro.store.{ColumnStore, RangeQuery}

import java.io.PrintWriter
import java.util.concurrent.ForkJoinPool
import scala.util.Random

/** The threshold of Flood's parallel refinement and scan: one query's wall
  * time with all its non-empty cells in one chunk, on the caller, against
  * `FloodIndex.Chunks` chunks, on the caller and the common fork/join
  * pool's threads, by the number of non-empty cells the query meets:
  *
  * {{{
  * sbt "Test/runMain repro.ParallelCrossover [rows] [passes]"
  * }}}
  *
  * The store (default 2^21 rows, about tpch-scan's 2M) has a uniform grid
  * column `x`, a uniform column `y` (the aggregation column) and a TPC-H
  * `orderkey`-like sort column `key` (about four rows share a key). One
  * `FloodIndex` cuts `x` into 2^14 columns, so a cell holds about 128 rows
  * (tpch-scan's pinned layout: about 145). For each size 2^k, every query
  * filters `x` to 2^k adjacent columns, so it meets about 2^k non-empty
  * cells, and filters either
  *   - `refine`: `key` to 1% of its keys, so each cell is binary-searched
  *     and answered from prefix sums, like tpch-scan's sort-only tail, or
  *   - `scan`: `y` to half its range, so each cell's rows are scanned with
  *     one check and nothing is refined.
  *
  * Before each timed query the caller reads through a 64 MB buffer for
  * `IdleMillis` while the pool's threads park, as they do between rare
  * large queries while the client runs small ones; timing queries back to
  * back would keep the threads awake and hide the cost of waking them, and
  * would let the second way of a pair find the first one's data cached.
  * Both ways must give the same answers and counters. Each query is timed
  * both ways once per pass, in alternating order. A line reports, per size
  * and kind, the median non-empty cells, each way's median wall time over
  * all queries and `passes` passes (default 5), and the share of those
  * pairs the split query won. The split query is faster at a size when its median is
  * lower and it won at least `MinWins` of the pairs. The crossover is the
  * smallest size from which it is faster for both kinds at every larger
  * size measured; `FloodIndex.ParallelMinCells` is set from it.
  */
object ParallelCrossover {

  final case class Row(cells: Int, kind: String, medianCells: Long, serialUs: Double, splitUs: Double, splitWins: Double) {
    def splitFaster: Boolean = splitUs < serialUs && splitWins >= MinWins
  }

  /** The share of paired timings the split query must win, besides the
    * median: a split query that loses now and then (a thread woke late)
    * loses in the tail, and the tail is what a large query sets.
    */
  val MinWins = 0.9

  /** How long the pool's threads idle before each timed query. */
  val IdleMillis = 2L

  def main(args: Array[String]): Unit = {
    val rows = if (args.length > 0) args(0).toInt else 1 << 21
    val passes = if (args.length > 1) args(1).toInt else 5
    val out = new PrintWriter(System.out)
    out.println(s"common-pool threads besides the caller: ${ForkJoinPool.getCommonPoolParallelism}, chunks: ${FloodIndex.Chunks}")
    val rs = run(rows, 6 to 14, passes, queriesPerSize = 16, out)
    out.println(crossover(rs).fold("crossover: the split query is faster at no measured size")(c => s"crossover: $c non-empty cells"))
    out.flush()
  }

  /** The smallest size from which the split query wins, for every kind, at
    * every larger size.
    */
  def crossover(rs: Seq[Row]): Option[Int] = {
    val sizes = rs.map(_.cells).distinct.sorted
    sizes.find(s => rs.filter(_.cells >= s).forall(_.splitFaster))
  }

  /** Time queries that meet `2^k` non-empty cells for each `k` in
    * `logSizes`, on a `rows`-row store laid out in `2^logSizes.max` cells.
    */
  def run(rows: Int, logSizes: Range, passes: Int, queriesPerSize: Int, out: PrintWriter): Seq[Row] = {
    val rng = new Random(1601)
    val keys = rows / 4 + 1
    val cols = 1 << logSizes.max
    val idx = index(rows, cols, rng)
    val xs = idx.data.columns(0).clone()
    java.util.Arrays.sort(xs)
    // a query over columns [c, c + m) of x: the quantiles a quarter column inside its ends
    def xRange(c: Int, m: Int): (Long, Long) =
      (xs(((c + 0.25) * rows / cols).toInt), xs(math.min(rows - 1, ((c + m - 0.25) * rows / cols).toInt)))
    val sizes = logSizes.map(1 << _)
    val workload = for (m <- sizes; kind <- Seq("refine", "scan")) yield {
      val qs = Seq.fill(queriesPerSize) {
        val (lo, hi) = xRange(rng.nextInt(cols - m + 1), m)
        val k = rng.nextInt(keys)
        if (kind == "refine") RangeQuery.of(3, 0 -> (lo, hi), 2 -> (k.toLong, k.toLong + keys / 100))
        else RangeQuery.of(3, 0 -> (lo, hi), 1 -> (0L, 499999L))
      }
      for (q <- qs) checkSame(idx.queryWithStats(q, Int.MaxValue), idx.queryWithStats(q, 0), q)
      (m, kind, qs)
    }
    // JIT warm-up, back to back
    for (_ <- 0 until 3; (_, _, qs) <- workload; q <- qs) { idx.queryWithStats(q, Int.MaxValue); idx.queryWithStats(q, 0) }
    out.println(f"${"cells"}%7s ${"kind"}%7s ${"non-empty"}%10s ${"serial us"}%10s ${"split us"}%10s ${"split wins"}%10s faster")
    workload.map { case (m, kind, qs) =>
      val serial = new Array[Double](qs.length * passes)
      val split = new Array[Double](qs.length * passes)
      var wins = 0
      val nonEmpty = qs.map(idx.queryWithStats(_).nonEmptyCells).sorted
      var j = 0
      for (p <- 0 until passes; q <- qs) {
        def time(minCellsToSplit: Int): Double = {
          idle()
          val t = System.nanoTime()
          sink += idx.queryWithStats(q, minCellsToSplit).sum
          (System.nanoTime() - t) / 1e3
        }
        if (p % 2 == 0) { serial(j) = time(Int.MaxValue); split(j) = time(0) }
        else { split(j) = time(0); serial(j) = time(Int.MaxValue) }
        if (split(j) < serial(j)) wins += 1
        j += 1
      }
      val row = Row(m, kind, nonEmpty(nonEmpty.length / 2), median(serial), median(split), wins.toDouble / j)
      out.println(f"${row.cells}%7d ${row.kind}%7s ${row.medianCells}%10d ${row.serialUs}%10.1f ${row.splitUs}%10.1f ${row.splitWins}%10.2f " +
        (if (row.splitFaster) "split" else "serial"))
      out.flush()
      row
    }
  }

  /** The store described above, `rows` rows drawn from `rng`, with `x` cut
    * into `cols` columns.
    */
  def index(rows: Int, cols: Int, rng: Random): FloodIndex = {
    val keys = rows / 4 + 1
    val store = ColumnStore.of(
      "x" -> Array.fill(rows)(rng.nextInt(1000000).toLong),
      "y" -> Array.fill(rows)(rng.nextInt(1000000).toLong),
      "key" -> Array.fill(rows)(rng.nextInt(keys).toLong))
    new FloodIndex(store, Layout(Array(0, 1, 2), Array(cols, 1)), CdfFlattening.train(store), aggDim = 1)
  }

  // larger than the host's last-level cache
  private lazy val flush = new Array[Long](1 << 23)
  private var flushAt = 0

  /** Keep the caller busy for `IdleMillis`, as a client running smaller
    * queries is, while the pool's threads park. The caller reads on through a
    * buffer larger than the last-level cache, so each timed query starts
    * with caches as cold for one way as for the other.
    */
  private def idle(): Unit = {
    val until = System.nanoTime() + IdleMillis * 1000000L
    var acc = 0L
    while (System.nanoTime() < until) {
      var j = 0
      while (j < 512) { acc += flush(flushAt); flushAt = (flushAt + 8) & (flush.length - 1); j += 1 }
    }
    sink += acc
  }

  // the queries' sums, kept so that no query is optimised away
  @volatile private var sink = 0L

  private def median(xs: Array[Double]): Double = { val s = xs.sorted; s(s.length / 2) }

  private def checkSame(serial: FloodStats, split: FloodStats, q: RangeQuery): Unit = {
    def counters(s: FloodStats) = (s.count, s.sum, s.scanned, s.exactPoints, s.cellsInRect, s.nonEmptyCells)
    require(counters(serial) == counters(split), s"$q: one chunk gives ${counters(serial)}, chunks give ${counters(split)}")
  }
}
