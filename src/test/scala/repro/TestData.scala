package repro

import repro.store.{ColumnStore, RangeQuery}

import java.util.concurrent.atomic.AtomicInteger
import java.util.concurrent.{CountDownLatch, ForkJoinPool}
import scala.util.Random

/** Deterministic generators for the non-Spark engine tests: random column
  * stores with a mix of uniform / skewed / low-cardinality dimensions, and
  * random conjunctive range queries over them.
  */
object TestData {

  /** A d-dimensional store with varied per-dimension distributions. */
  def randomStore(n: Int, d: Int, seed: Long): ColumnStore = {
    val rng = new Random(seed)
    val cols = Array.tabulate(d) { k =>
      k % 4 match {
        case 0 => Array.fill(n)(rng.nextInt(1000000).toLong) // uniform, high cardinality
        case 1 => Array.fill(n)((math.pow(rng.nextDouble(), 4) * 10000).toLong) // skewed
        case 2 => Array.fill(n)(rng.nextInt(8).toLong) // low cardinality
        case _ => Array.fill(n)((math.exp(rng.nextGaussian()) * 100).toLong) // lognormal
      }
    }
    new ColumnStore(Array.tabulate(d)(i => s"c$i"), cols)
  }

  /** A random query filtering 1..d dimensions, sometimes with equality and
    * sometimes with open-ended ranges.
    */
  def randomQuery(store: ColumnStore, rng: Random): RangeQuery = {
    val d = store.numDims
    val q = RangeQuery.full(d)
    val nf = 1 + rng.nextInt(d)
    val dims = rng.shuffle((0 until d).toList).take(nf)
    val anchorRow = rng.nextInt(store.numRows)
    for (dim <- dims) {
      val v = store(dim, anchorRow)
      rng.nextInt(4) match {
        case 0 => // equality
          q.lo(dim) = v; q.hi(dim) = v
        case 1 => // one-sided lower
          q.lo(dim) = v - rng.nextInt(1000)
        case 2 => // one-sided upper
          q.hi(dim) = v + rng.nextInt(1000)
        case _ => // two-sided around the anchor
          q.lo(dim) = v - rng.nextInt(5000)
          q.hi(dim) = v + rng.nextInt(5000)
      }
    }
    q
  }

  /** Sorted array with duplicates and gaps, for search/model tests. */
  def sortedWithDuplicates(n: Int, seed: Long): Array[Long] = {
    val rng = new Random(seed)
    val a = new Array[Long](n)
    var v = rng.nextInt(50).toLong
    var i = 0
    while (i < n) {
      a(i) = v
      if (rng.nextDouble() < 0.4) v += 1 + rng.nextInt(100)
      i += 1
    }
    a
  }

  /** Run `body` while every thread of `ForkJoinPool.commonPool()` waits on
    * a latch, so a split Flood query's chunks can run only on its caller.
    * The pool starts no thread while they wait: it has as many as its
    * parallelism and joins nothing. The latch is released when `body`
    * returns or throws.
    */
  def withCommonPoolBlocked[A](body: => A): A = {
    val pool = ForkJoinPool.commonPool()
    val release = new CountDownLatch(1)
    val blocked = new AtomicInteger
    try {
      def threads = math.max(pool.getParallelism, pool.getPoolSize)
      for (_ <- 0 until threads) pool.execute(() => { blocked.incrementAndGet(); release.await() })
      val deadline = System.nanoTime() + 30000000000L
      while (blocked.get < threads && System.nanoTime() < deadline) Thread.sleep(1)
      require(blocked.get >= threads, s"${blocked.get} of the common pool's $threads threads blocked")
      body
    } finally release.countDown()
  }
}
