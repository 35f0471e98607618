package repro.opt

import repro.core.{Flattening, FloodIndex, Layout}
import repro.store.RangeQuery
import repro.workload.{Dataset, Workloads}

import scala.util.Random

/** Estimates a candidate layout's per-query cost features from a data sample
  * without building the layout (paper §4.2: "statistics are either estimated
  * using a sample of D or computed exactly from the query rectangle and
  * layout parameters").
  *
  * Sample points are flattened once (their per-dimension CDF fractions are
  * precomputed); each (layout, query) evaluation is then the layout's
  * projection of the query and a single pass over the sample with O(1)
  * per-dimension column arithmetic.
  */
final class LayoutEvaluator(
    ds: Dataset,
    flattening: Flattening,
    queries: Array[RangeQuery],
    sampleSize: Int,
    seed: Long
) {
  private val store = ds.store
  private val d = store.numDims
  private val n = store.numRows
  private val rng = new Random(seed)
  private val sampleRows: Array[Int] =
    if (n <= sampleSize) Array.range(0, n) else Array.fill(sampleSize)(rng.nextInt(n))
  private val m = sampleRows.length
  private val scale = n.toDouble / m

  // flattened sample: fracs(dim)(i) = CDF fraction of sample point i in dim
  private val fracs: Array[Array[Double]] = Array.tabulate(d) { dim =>
    val a = new Array[Double](m)
    var i = 0
    while (i < m) { a(i) = flattening.frac(dim, store(dim, sampleRows(i))); i += 1 }
    a
  }
  // raw sample values (for the sort-dimension refinement check)
  private val rawVals: Array[Array[Long]] = Array.tabulate(d) { dim =>
    Array.tabulate(m)(i => store(dim, sampleRows(i)))
  }
  /** Estimated cost features of query `qi` under `layout`. */
  def features(layout: Layout, qi: Int): CostFeatures = {
    val q = queries(qi)
    val g = layout.d - 1
    val gridDims = layout.order
    val cols = layout.cols
    val sortDim = layout.sortDim
    val proj = layout.project(flattening, q)
    val sortFiltered = q.filters(sortDim)
    // one pass over the sample: scanned + exact-interior points
    var nsSample = 0
    var exactSample = 0
    var p = 0
    while (p < m && !proj.isEmpty) {
      var in = true
      var interior = true
      var i = 0
      while (in && i < g) {
        val dim = gridDims(i)
        val c = Flattening.colOf(fracs(dim)(p), cols(i))
        if (c < proj.lo(i) || c > proj.hi(i)) in = false
        else if (q.filters(dim) && (c == proj.lo(i) || c == proj.hi(i))) interior = false
        i += 1
      }
      if (in && sortFiltered) {
        val v = rawVals(sortDim)(p)
        if (v < q.lo(sortDim) || v > q.hi(sortDim)) in = false
      }
      if (in) {
        nsSample += 1
        if (interior) exactSample += 1
      }
      p += 1
    }
    val rectCells = proj.numCells.toDouble
    val ns = math.max(1.0, nsSample * scale)
    val nonEmpty = math.max(1.0, math.min(rectCells, nsSample.toDouble * scale / math.max(1.0, n.toDouble / layout.numCells)))
    val fracExact = if (nsSample == 0) 0.0 else exactSample.toDouble / nsSample
    CostFeatures.of(layout, n, q, rectCells, nonEmpty, ns, fracExact)
  }

  /** Average predicted query time (ns) of the workload under `layout`. */
  def objective(layout: Layout, model: CostModel): Double = {
    var s = 0.0
    var i = 0
    while (i < queries.length) { s += model.predictNanos(features(layout, i)); i += 1 }
    s / queries.length
  }
}

/** Layout optimization (paper §4.2, Algorithm 1): try each dimension as the
  * sort dimension, order the grid dimensions by selectivity, and search the
  * per-dimension column counts by a multiplicative coordinate descent on the
  * cost-model objective. Nothing is built or sorted during the search.
  */
object LayoutOptimizer {

  final case class Result(layout: Layout, predictedNanos: Double, learnNanos: Long)

  val MaxTotalCells: Long = 1L << 18
  val MaxColsPerDim: Int = 2048
  private val DataSampleSize = 4000
  private val QuerySampleSize = 30
  private val MaxIters = 12

  def optimize(
      ds: Dataset,
      flattening: Flattening,
      trainQueries: Array[RangeQuery],
      model: CostModel,
      seed: Long = 31
  ): Result = {
    val t0 = System.nanoTime()
    val rng = new Random(seed)
    val d = ds.numDims
    val qs =
      if (trainQueries.length <= QuerySampleSize) trainQueries
      else Array.fill(QuerySampleSize)(trainQueries(rng.nextInt(trainQueries.length)))
    val eval = new LayoutEvaluator(ds, flattening, qs, DataSampleSize, seed)
    val selOrder = Workloads.selectivityOrder(ds.store, qs)

    var best: Layout = null
    var bestCost = Double.MaxValue

    for (sortDim <- 0 until d) {
      val grid = selOrder.filter(_ != sortDim)
      val order = grid :+ sortDim
      // initial allocation: uniform split of a moderate cell budget
      val g = d - 1
      val target = math.min(MaxTotalCells / 4, math.max(64L, ds.numRows / 4096L))
      var cols = Layout.uniform(order, target).cols
      var cost = eval.objective(Layout(order, cols), model)
      var iter = 0
      var improved = true
      while (improved && iter < MaxIters) {
        improved = false
        var i = 0
        while (i < g) {
          for (factor <- Seq(2.0, 0.5)) {
            val c2 = cols.clone()
            c2(i) = math.max(1, math.min(MaxColsPerDim, math.round(cols(i) * factor).toInt))
            if (!java.util.Arrays.equals(c2, cols)) {
              val l2 = Layout(order, c2)
              if (l2.numCells <= MaxTotalCells) {
                val cand = eval.objective(l2, model)
                if (cand < cost - 1e-9) { cost = cand; cols = c2; improved = true }
              }
            }
          }
          i += 1
        }
        iter += 1
      }
      if (cost < bestCost) { bestCost = cost; best = Layout(order, cols) }
    }
    Result(best, bestCost, System.nanoTime() - t0)
  }

  /** Flood's one learn-then-build entry point: learn the layout for `train`
    * under `model` on `flattening`'s columns, then load the index.
    */
  def learnAndBuild(ds: Dataset, flattening: Flattening, train: Array[RangeQuery], model: CostModel,
                    seed: Long): (Result, FloodIndex) = {
    val learned = optimize(ds, flattening, train, model, seed)
    (learned, new FloodIndex(ds.store, learned.layout, flattening, ds.aggDim))
  }
}
