package floodbench

import scala.collection.mutable.ArrayBuffer

import repro.core.FloodIndex
import repro.store.{RangeQuery, Scan}
import repro.workload.Dataset

/** Expected COUNT and SUM of every distinct query, from `Scan.brute`. */
final class Truth(val count: Array[Long], val sum: Array[Long])

object Truth {

  /** Brute-force answers, computed on `threads` threads. */
  def brute(ds: Dataset, qs: Array[RangeQuery], threads: Int): Truth = {
    val count = new Array[Long](qs.length)
    val sum = new Array[Long](qs.length)
    val workers = (0 until threads).map { t =>
      new Thread(() => {
        var i = t
        while (i < qs.length) {
          val (c, s) = Scan.brute(ds.store, qs(i), ds.aggDim)
          count(i) = c; sum(i) = s
          i += threads
        }
      })
    }
    workers.foreach(_.start()); workers.foreach(_.join())
    new Truth(count, sum)
  }
}

/** One window of the closed loop: its query latencies and wall time. */
final class Window(latNs: Array[Long], val ns: Long) {
  val samples: Int = latNs.length
  val p50Ns: Double = Stats.quantile(latNs, 0.5)
  val p99Ns: Double = Stats.quantile(latNs, 0.99)
  def qps: Double = samples / (ns / 1e9)
}

/** Outcome of one closed-loop phase.
  *
  * Each statistic is taken per window, and the phase reports the quartile
  * of the windows on the fast side: the 25th percentile of the window p50s
  * and p99s, the 75th of the window throughputs. The host this benchmark
  * was written on alternates between a fast and a slow CPU phase lasting
  * seconds (a fixed CPU loop takes either ~136 or ~232 ms), and whole-run
  * statistics moved 15-20% between runs of the same code and seed. Every
  * window runs whole cycles over the distinct queries, so windows differ in
  * machine phase, not in work.
  */
final class LoopResult(val windows: Seq[Window], val completed: Long, val failed: Long) {
  private def q(f: Window => Double, p: Double): Double = Stats.quantileD(windows.map(f).toArray, p)
  def samples: Int = windows.map(_.samples).sum
  def p50Ns: Double = q(_.p50Ns, 0.25)
  def p99Ns: Double = q(_.p99Ns, 0.25)
  def qps: Double = q(_.qps, 0.75)
}

/** Warm-up outcome: the p50 of each pass (µs), queries run, wrong answers. */
final case class Warm(p50sUs: Seq[Double], completed: Long, failed: Long)

object Measure {

  /** A window closes at the first end of a full cycle over the distinct
    * queries after it has lasted this long and kept `WindowSamples`
    * latencies (so its p99 has ten samples beyond it). Every window runs
    * the same queries.
    */
  val WindowSeconds = 0.25
  val WindowSamples = 1000

  /** Closed loop: one client sends its next query as soon as the previous
    * one returns, cycling through `qs`, for `seconds`. Every answer is
    * checked against `truth` and every latency is kept. With `spans` set,
    * each query goes through `queryWithStats` and is recorded as a span.
    */
  def closedLoop(
      index: FloodIndex,
      qs: Array[RangeQuery],
      truth: Truth,
      seconds: Double,
      spans: QuerySpans = null
  ): LoopResult = {
    val n = qs.length
    val windowNs = (WindowSeconds * 1e9).toLong
    val windows = ArrayBuffer.empty[Window]
    val lat = new LongBuf
    var done = 0L
    var bad = 0L
    var j = 0
    var now = System.nanoTime()
    val stop = now + (seconds * 1e9).toLong
    var winStart = now
    while (now < stop) {
      val q = qs(j)
      val t0 = System.nanoTime()
      var cnt = 0L
      var sum = 0L
      if (spans == null) {
        val r = index.query(q)
        now = System.nanoTime()
        cnt = r.count; sum = r.sum
      } else {
        val st = index.queryWithStats(q)
        now = System.nanoTime()
        spans.record(j, t0, now, st)
        cnt = st.count; sum = st.sum
      }
      if (cnt != truth.count(j) || sum != truth.sum(j)) bad += 1
      lat.add(now - t0)
      done += 1
      j += 1
      if (j == n) {
        j = 0
        if (now - winStart >= windowNs && lat.size >= WindowSamples) {
          windows += new Window(lat.toArray, now - winStart)
          lat.clear()
          winStart = now
        }
      }
    }
    // the unfinished last window is dropped unless no window closed
    if (windows.isEmpty) windows += new Window(lat.toArray, now - winStart)
    new LoopResult(windows.toSeq, done, bad)
  }

  /** Warm the JIT on the workload's own queries: passes of `passSeconds`
    * until the pass p50 has not fallen by 1% for two passes in a row (at
    * least `minPasses`, at most `maxSeconds` in all).
    */
  def warmUp(
      index: FloodIndex,
      qs: Array[RangeQuery],
      truth: Truth,
      passSeconds: Double,
      minPasses: Int,
      maxSeconds: Double
  ): Warm = {
    val p50s = ArrayBuffer.empty[Double]
    var best = Double.MaxValue
    var flat = 0
    var ran = 0L
    var failed = 0L
    val t0 = System.nanoTime()
    def elapsed = (System.nanoTime() - t0) / 1e9
    while (p50s.length < minPasses || (flat < 2 && elapsed < maxSeconds)) {
      val r = closedLoop(index, qs, truth, passSeconds)
      ran += r.completed
      failed += r.failed
      val p50 = r.p50Ns / 1e3
      p50s += p50
      if (p50 < best * 0.99) { best = p50; flat = 0 } else flat += 1
    }
    Warm(p50s.toSeq, ran, failed)
  }
}

/** Growable primitive buffer (no boxing in the timed loop). */
final class LongBuf {
  private var a = new Array[Long](1 << 12)
  private var n = 0
  def add(v: Long): Unit = {
    if (n == a.length) a = java.util.Arrays.copyOf(a, n * 2)
    a(n) = v; n += 1
  }
  def size: Int = n
  def clear(): Unit = n = 0
  def toArray: Array[Long] = java.util.Arrays.copyOf(a, n)
}

object Stats {

  /** Quantile with linear interpolation between closest ranks. */
  def quantile(xs: Array[Long], p: Double): Double = quantileD(xs.map(_.toDouble), p)

  def quantileD(xs: Array[Double], p: Double): Double = {
    require(xs.nonEmpty, "quantile of an empty sample")
    val s = xs.clone()
    java.util.Arrays.sort(s)
    val pos = p * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(s.length - 1, lo + 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Seq[Double]): Double = quantileD(xs.toArray, 0.5)
}
