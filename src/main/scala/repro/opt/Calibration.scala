package repro.opt

import repro.core.{CdfFlattening, FloodIndex, FloodStats, Layout}
import repro.model.RandomForest
import repro.store.RangeQuery
import repro.workload.Dataset

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Cost-model calibration (paper §4.1.1): build Flood on ~10 random layouts
  * of a (possibly synthetic) dataset, run the query workload on each, and
  * from every (query, layout) pair record the measured weights
  * `w_p = t_proj/N_c`, `w_r = t_refine/cells`, `w_s = t_scan/N_s` together
  * with the feature statistics. Random forests regress weights on features.
  * Calibration is per-machine, once — §7.6 shows the weights transfer across
  * datasets (our Table 3 bench re-verifies this).
  */
object Calibration {

  private val MaxTotalLog2 = 14

  /** A random layout: random dimension ordering, random per-dimension column
    * counts targeting a random total cell count of up to 2^13 (paper §4.1.1).
    * One dimension has no grid to split, so it gets the one-cell layout.
    */
  def randomLayout(d: Int, rng: Random): Layout = {
    if (d == 1) return Layout(Array(0), Array())
    val order = rng.shuffle((0 until d).toList).toArray
    val g = d - 1
    val targetLog2 = 2 + rng.nextInt(math.max(1, MaxTotalLog2 - 2))
    // split targetLog2 bits randomly across the grid dims
    val logs = Array.fill(g)(0)
    var b = 0
    while (b < targetLog2) { logs(rng.nextInt(g)) += 1; b += 1 }
    Layout(order, logs.map(l => 1 << math.min(l, 10)))
  }

  final case class Example(features: CostFeatures, wp: Double, wr: Double, ws: Double)

  /** Run the workload over `numLayouts` random layouts and collect weight
    * training examples.
    */
  def collectExamples(
      ds: Dataset,
      queries: Array[RangeQuery],
      numLayouts: Int = 10,
      seed: Long = 23
  ): Seq[Example] = {
    val rng = new Random(seed)
    val flat = CdfFlattening.train(ds.store)
    val out = new ArrayBuffer[Example]()
    var l = 0
    while (l < numLayouts) {
      val layout = randomLayout(ds.numDims, rng)
      val idx = new FloodIndex(ds.store, layout, flat, ds.aggDim)
      for (q <- queries) idx.queryWithStats(q) // warm-up pass
      for (q <- queries) {
        val st: FloodStats = idx.queryWithStats(q)
        val f = CostFeatures.of(layout, ds.numRows, q, st.cellsInRect.toDouble, st.nonEmptyCells.toDouble,
          st.scanned.toDouble, st.exactPoints.toDouble / math.max(1L, st.scanned))
        val wp = st.projectionNanos.toDouble / math.max(1L, st.cellsInRect)
        val wr = st.refineNanos.toDouble / math.max(1L, st.nonEmptyCells)
        val ws = st.scanNanos.toDouble / math.max(1L, st.scanned)
        out += Example(f, wp, wr, ws)
      }
      l += 1
    }
    out.toSeq
  }

  /** Calibrate a cost model on a dataset + workload. */
  def calibrate(
      ds: Dataset,
      queries: Array[RangeQuery],
      numLayouts: Int = 10,
      seed: Long = 23
  ): CostModel = {
    val ex = collectExamples(ds, queries, numLayouts, seed)
    val xs = ex.map(_.features.toArray).toArray
    val wp = RandomForest.fit(xs, ex.map(_.wp).toArray, seed = seed)
    val wrEx = ex.filter(_.features.refined)
    val wr =
      if (wrEx.nonEmpty)
        RandomForest.fit(wrEx.map(_.features.toArray).toArray, wrEx.map(_.wr).toArray, seed = seed + 1)
      else RandomForest.fit(xs, ex.map(_ => 0.0).toArray, seed = seed + 1)
    val ws = RandomForest.fit(xs, ex.map(_.ws).toArray, seed = seed + 2)
    new CostModel(wp, wr, ws)
  }
}
