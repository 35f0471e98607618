package repro.spark

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core.{CdfFlattening, Flattening, Layout}
import repro.store.ColumnStore

/** Flood's learned layout as a Spark partitioning/sort scheme with
  * DataFrame-level data skipping.
  *
  * The paper's index is a storage order plus a cell table; in Spark terms
  * that is: (1) compute a `flood_cell` id for every row from the learned
  * per-dimension CDFs (flattening) and the layout's column counts, (2)
  * repartition by cell range and sort within partitions by
  * `(flood_cell, sortDim)` — giving exactly the paper's depth-first cell
  * traversal order with sort-dimension runs inside each cell — and (3)
  * answer a query by a Catalyst filter that combines *cell-coordinate
  * pruning* (the projection step, computed from `flood_cell` arithmetic, so
  * entire cells are skipped without touching their payload columns) with the
  * residual value predicate.
  *
  * The layout and flattening are the core engine's own `Layout` and
  * `Flattening`, so a layout learned by `LayoutOptimizer` (or one that a
  * `FloodIndex` runs on) drives Spark unchanged and assigns every row the
  * same cell.
  *
  * Everything is DataFrame/Catalyst; no RDD-level code.
  */
object FloodSpark {

  private val NumPartitions = 16
  private val SampleSize = 10000
  private val SampleSeed = 19L

  /** A core layout over named DataFrame columns.
    *
    * @param names      `names(k)` is the DataFrame column of layout dimension `k`
    * @param layout     grid dimensions, column counts and sort dimension
    * @param flattening per-dimension value → [0, 1] maps spacing the columns
    */
  final case class SparkLayout(names: Seq[String], layout: Layout, flattening: Flattening) {
    require(names.length == layout.d, "one column name per layout dimension")
  }

  /** Learn a layout's flattening from a sample of `df` (the layout's shape —
    * grid dims, column counts, sort dim — comes from the core optimizer or a
    * caller-chosen configuration).
    */
  def learnLayout(df: DataFrame, gridDims: Seq[String], cols: Seq[Int], sortDim: String): SparkLayout = {
    val frac = math.min(1.0, SampleSize.toDouble / math.max(1L, df.count()).toDouble * 1.5)
    val names = gridDims :+ sortDim
    val sample = ColumnStore.fromDataFrame(df.sample(withReplacement = false, frac, SampleSeed), names)
    SparkLayout(names, Layout(names.indices.toArray, cols.toArray), CdfFlattening.train(sample))
  }

  /** The `flood_cell` expression for a layout. */
  def cellColumn(layout: SparkLayout): Column = {
    val l = layout.layout
    val flat = layout.flattening
    val strides = l.strides
    val parts = l.gridDims.indices.map { i =>
      val dim = l.gridDims(i)
      val c = l.cols(i)
      val colOfUdf = udf((v: Long) => flat.colOf(dim, v, c).toLong)
      colOfUdf(col(layout.names(dim)).cast("long")) * lit(strides(i))
    }
    parts.reduceOption(_ + _).getOrElse(lit(0L)).as("flood_cell")
  }

  /** Lay out `df`: add `flood_cell`, range-partition by it, and sort within
    * partitions by `(flood_cell, sortDim)` — the physical storage order of
    * the paper's index.
    */
  def applyLayout(df: DataFrame, layout: SparkLayout): DataFrame =
    df.withColumn("flood_cell", cellColumn(layout))
      .repartitionByRange(NumPartitions, col("flood_cell"))
      .sortWithinPartitions(col("flood_cell"), col(layout.names(layout.layout.sortDim)))

  /** Driver-side projection: the per-grid-dimension column (bucket) ranges a
    * query touches. Ranges are inclusive.
    */
  def projectedColRanges(
      layout: SparkLayout,
      preds: Seq[(String, Long, Long)]
  ): Seq[(Int, Int)] = {
    val byName = preds.map(p => p._1 -> ((p._2, p._3))).toMap
    val l = layout.layout
    l.gridDims.indices.map { i =>
      val dim = l.gridDims(i)
      val c = l.cols(i)
      byName.get(layout.names(dim)) match {
        case Some((lo, hi)) => (layout.flattening.colOf(dim, lo, c), layout.flattening.colOf(dim, hi, c))
        case None => (0, c - 1)
      }
    }
  }

  /** Number of cells the query rectangle intersects (skipping effectiveness). */
  def cellsTouched(layout: SparkLayout, preds: Seq[(String, Long, Long)]): Long =
    projectedColRanges(layout, preds).map { case (lo, hi) => (hi - lo + 1).toLong }.product

  /** The cell-pruning predicate: decodes each grid coordinate from
    * `flood_cell` with integer arithmetic and keeps only coordinates inside
    * the projected ranges. Pure Catalyst — no UDFs — so it participates in
    * predicate pushdown.
    */
  def prunePredicate(layout: SparkLayout, preds: Seq[(String, Long, Long)]): Column = {
    val ranges = projectedColRanges(layout, preds)
    val l = layout.layout
    val strides = l.strides
    val conds = ranges.indices.map { i =>
      val coord = floor(col("flood_cell") / lit(strides(i))) % lit(l.cols(i).toLong)
      val (lo, hi) = ranges(i)
      coord.between(lit(lo.toLong), lit(hi.toLong))
    }
    conds.reduceOption(_ && _).getOrElse(lit(true))
  }

  /** Answer a conjunctive range query over the laid-out DataFrame: cell
    * pruning (projection) AND the residual value filter (refinement + scan,
    * handled by Spark's sorted-run scan within each cell).
    */
  def scan(laidOut: DataFrame, layout: SparkLayout, preds: Seq[(String, Long, Long)]): DataFrame = {
    val valueConds = preds.map { case (c, lo, hi) => col(c).cast("long").between(lit(lo), lit(hi)) }
    val full = (prunePredicate(layout, preds) +: valueConds).reduce(_ && _)
    laidOut.filter(full)
  }
}
