package floodbench

import repro.core.Layout
import repro.workload.{Dataset, Workloads => Gen}
import repro.workload.Workloads.Workload

/** One benchmark workload: a generated dataset, its queries (sent by one
  * closed-loop client), and the layout the query metrics run on.
  *
  * @param rows     dataset size
  * @param distinct distinct test queries the timed loop cycles through
  * @param pinned   the layout every query metric runs on (see README: the
  *                 learned layout changes between calibrations, so timing it
  *                 would measure the calibration, not the engine)
  * @param setupReps how many times set-up is repeated; `setup_s` is the median
  * @param queries  (dataset, distinct, seed) => train/test queries
  */
final case class Spec(
    name: String,
    dataset: String,
    rows: Int,
    distinct: Int,
    pinned: Layout,
    setupReps: Int,
    queries: (Dataset, Int, Long) => Workload
)

object Workloads {

  /** Spark partitions used to generate data (fixed: see `Main.spark`). */
  val GenPartitions = 4

  /** Queries the optimizer learns from (`Workloads.standard`'s default). */
  val TrainQueries = 80

  val all: Seq[Spec] = Seq(
    // Skewed data, the paper's typical OLAP mix at 0.1% selectivity:
    // projection and refinement are a large share of query time.
    Spec("osm-olap", "osm", 300000, distinct = 2000,
      pinned = Layout(Array(5, 1, 3, 4, 0, 2), Array(4, 128, 16, 1, 1)), setupReps = 7,
      queries = (ds, n, seed) => Gen.standard(ds, TrainQueries, n, seed, targetSel = 0.001)),
    // Data larger than the last-level cache at 1% selectivity: scan and
    // loading dominate.
    Spec("tpch-scan", "tpch", 2000000, distinct = 400,
      pinned = Layout(Array(6, 2, 5, 3, 4, 1, 0), Array(1, 3, 96, 12, 4, 1)), setupReps = 3,
      queries = (ds, n, seed) => Gen.standard(ds, TrainQueries, n, seed, targetSel = 0.01))
  )

  val byName: Map[String, Spec] = all.map(s => s.name -> s).toMap
}
