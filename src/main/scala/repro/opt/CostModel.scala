package repro.opt

import repro.core.Layout
import repro.model.RandomForest
import repro.store.RangeQuery

/** Per-query statistics that drive the cost model (paper §4.1.1): both the
  * measurable counters `N = {N_c, N_s}` and the layout/query descriptors the
  * weight models condition on. The same vector is *measured* during
  * calibration and *estimated from a sample* during layout optimization.
  */
final case class CostFeatures(
    cellsInRect: Double,     // N_c: cells inside the query rectangle
    nonEmptyCells: Double,   // cells actually refined/scanned
    ns: Double,              // N_s: points scanned
    totalCells: Double,      // layout's total cell count
    avgCellSize: Double,     // n / totalCells
    numFilteredDims: Double, // dims filtered by the query
    avgVisitedPerCell: Double,
    fracExact: Double,       // fraction of scanned points in exact sub-ranges
    refined: Boolean         // does the query filter the sort dimension?
) {
  /** Input vector of the weight models (log-compressed counters). */
  def toArray: Array[Double] = Array(
    math.log1p(cellsInRect),
    math.log1p(nonEmptyCells),
    math.log1p(ns),
    math.log1p(totalCells),
    math.log1p(avgCellSize),
    numFilteredDims,
    math.log1p(avgVisitedPerCell),
    fracExact
  )
}

object CostFeatures {

  /** The features of query `q` under `layout` on `numRows` rows, given the
    * counters N_c, non-empty cells and N_s and the exact fraction of N_s;
    * the descriptors derived from them are defined here only.
    */
  def of(layout: Layout, numRows: Int, q: RangeQuery,
         cellsInRect: Double, nonEmptyCells: Double, ns: Double, fracExact: Double): CostFeatures =
    CostFeatures(cellsInRect, nonEmptyCells, ns, layout.numCells.toDouble, numRows.toDouble / layout.numCells,
      q.filteredDims.length.toDouble, ns / math.max(1.0, nonEmptyCells), fracExact, q.filters(layout.sortDim))
}

/** Learned query-time model (paper Eq. 1):
  * `Time = w_p·N_c + w_r·N_c + w_s·N_s`, with each weight predicted by a
  * random-forest regression over `CostFeatures` (§4.1.1: a single model for
  * total time would sacrifice fast queries; the weights span a narrow range
  * and are learnable).
  */
final class CostModel(
    val wpModel: RandomForest,
    val wrModel: RandomForest,
    val wsModel: RandomForest
) extends Serializable {

  /** Predicted query time in nanoseconds. */
  def predictNanos(f: CostFeatures): Double = {
    val x = f.toArray
    val wp = math.max(0.0, wpModel.predict(x))
    val wr = if (f.refined) math.max(0.0, wrModel.predict(x)) else 0.0
    val ws = math.max(0.0, wsModel.predict(x))
    wp * f.cellsInRect + wr * f.nonEmptyCells + ws * f.ns
  }
}

/** Fixed-weight analytical alternative (paper §4.1.2 reports it is ~9× less
  * accurate than the learned model; kept for the comparison test).
  */
final class AnalyticCostModel(wp: Double, wr: Double, ws: Double) {
  def predictNanos(f: CostFeatures): Double =
    wp * f.cellsInRect + (if (f.refined) wr * f.nonEmptyCells else 0.0) + ws * f.ns
}
