package repro

import repro.store.RangeQuery

import scala.util.Random

/** Whether a split Flood query does less work than one chunk, and not only
  * in less wall time: one sort-only query's cells refined and scanned as
  * one chunk, against the same cells cut into `FloodIndex.Chunks` chunks
  * that all run on the caller, one after another:
  *
  * {{{
  * sbt "Test/runMain repro.ChunkedOnCaller [rows] [passes]"
  * }}}
  *
  * The store and layout are `ParallelCrossover`'s (default 2^21 rows in
  * 2^14 cells of about 128 rows). Each of 16 queries filters only the sort
  * column, to 1% of its keys, so it meets every non-empty cell and adds an
  * exact range per cell to its candidate list, like tpch-scan's sort-only
  * queries. Every thread of the common pool waits on a latch while the
  * queries run (`TestData.withCommonPoolBlocked`), so a split query's
  * chunks run on its caller. Each query is timed both ways once per pass
  * (default 10), in alternating order, first `warm` (back to back), then
  * `cold` (after reading through a 256 MB buffer, larger than the
  * last-level cache). A line per state reports each way's median wall
  * time, its median `refineNanos`, and the share of pairs the chunked way
  * won on wall time.
  */
object ChunkedOnCaller {

  def main(args: Array[String]): Unit = {
    val rows = if (args.length > 0) args(0).toInt else 1 << 21
    val passes = if (args.length > 1) args(1).toInt else 10
    val rng = new Random(1701)
    val idx = ParallelCrossover.index(rows, 1 << 14, rng)
    val keys = rows / 4 + 1
    val qs = Seq.fill(16) { val k = rng.nextInt(keys).toLong; RangeQuery.of(3, 2 -> (k, k + keys / 100)) }
    val flush = new Array[Long](1 << 25)
    TestData.withCommonPoolBlocked {
      for (q <- qs) {
        val (one, chunked) = (idx.queryWithStats(q, Int.MaxValue), idx.queryWithStats(q, 0))
        require((one.count, one.sum, one.scanned, one.exactPoints) == (chunked.count, chunked.sum, chunked.scanned, chunked.exactPoints), q)
      }
      for (_ <- 0 until 5; q <- qs) { idx.queryWithStats(q, Int.MaxValue); idx.queryWithStats(q, 0) }
      println(f"${"state"}%5s ${"one us"}%9s ${"chunks us"}%9s ${"one refine us"}%13s ${"chunks refine us"}%16s ${"chunks win"}%10s")
      for (state <- Seq("warm", "cold")) {
        val n = passes * qs.length
        val (oneUs, chunksUs, oneRef, chunksRef) = (new Array[Double](n), new Array[Double](n), new Array[Double](n), new Array[Double](n))
        var wins = 0
        var j = 0
        for (p <- 0 until passes; q <- qs) {
          def time(minCellsToSplit: Int, us: Array[Double], ref: Array[Double]): Unit = {
            if (state == "cold") { var i = 0; var acc = 0L; while (i < flush.length) { acc += flush(i); i += 8 }; sink += acc }
            val t = System.nanoTime()
            val s = idx.queryWithStats(q, minCellsToSplit)
            us(j) = (System.nanoTime() - t) / 1e3
            ref(j) = s.refineNanos / 1e3
            sink += s.sum
          }
          if (p % 2 == 0) { time(Int.MaxValue, oneUs, oneRef); time(0, chunksUs, chunksRef) }
          else { time(0, chunksUs, chunksRef); time(Int.MaxValue, oneUs, oneRef) }
          if (chunksUs(j) < oneUs(j)) wins += 1
          j += 1
        }
        def median(xs: Array[Double]) = { val s = xs.sorted; s(s.length / 2) }
        println(f"$state%5s ${median(oneUs)}%9.1f ${median(chunksUs)}%9.1f ${median(oneRef)}%13.1f ${median(chunksRef)}%16.1f ${wins.toDouble / n}%10.2f")
      }
    }
  }

  // the queries' sums and the buffer's reads, kept so that none is optimised away
  @volatile private var sink = 0L
}
