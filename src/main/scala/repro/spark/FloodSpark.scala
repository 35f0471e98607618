package repro.spark

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core.{CdfFlattening, Flattening, Layout, Projection}
import repro.store.{ColumnStore, RangeQuery}

/** Flood's learned layout as a Spark partitioning/sort scheme with
  * DataFrame-level data skipping.
  *
  * The paper's index is a storage order plus a cell table; in Spark terms
  * that is: (1) compute a `flood_cell` id for every row from the column
  * boundaries of the learned per-dimension CDFs (flattening) at the layout's
  * column counts, (2)
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

  /** The `flood_cell` expression for a layout. Each grid dimension's UDF
    * carries only that dimension's compiled column boundaries and assigns
    * columns the way `FloodIndex` loading does.
    */
  def cellColumn(layout: SparkLayout): Column = {
    val l = layout.layout
    val strides = l.strides
    val parts = l.gridDims.indices.map { i =>
      val dim = l.gridDims(i)
      val bounds = layout.flattening.boundaries(dim, l.cols(i))
      val colOfUdf = udf((v: Long) => bounds.column(v).toLong)
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

  /** Driver-side projection: the cells of the layout that the rectangle of
    * `preds` meets. Predicates on columns outside the layout prune nothing;
    * several on one column intersect.
    */
  private def project(layout: SparkLayout, preds: Seq[(String, Long, Long)]): Projection = {
    val q = RangeQuery.full(layout.layout.d)
    for ((name, lo, hi) <- preds) {
      val k = layout.names.indexOf(name)
      if (k >= 0) { q.lo(k) = math.max(q.lo(k), lo); q.hi(k) = math.min(q.hi(k), hi) }
    }
    layout.layout.project(layout.flattening, q)
  }

  /** Number of cells the query rectangle intersects (skipping effectiveness). */
  def cellsTouched(layout: SparkLayout, preds: Seq[(String, Long, Long)]): Long =
    project(layout, preds).numCells

  /** The cell-pruning predicate: decodes each grid coordinate from
    * `flood_cell` with integer arithmetic and keeps only coordinates inside
    * the projected ranges. Pure Catalyst — no UDFs — so it participates in
    * predicate pushdown.
    */
  def prunePredicate(layout: SparkLayout, preds: Seq[(String, Long, Long)]): Column = {
    val proj = project(layout, preds)
    val l = layout.layout
    val strides = l.strides
    if (proj.isEmpty) lit(false)
    else l.cols.indices.map { i =>
      val coord = floor(col("flood_cell") / lit(strides(i))) % lit(l.cols(i).toLong)
      coord.between(lit(proj.lo(i).toLong), lit(proj.hi(i).toLong))
    }.reduceOption(_ && _).getOrElse(lit(true))
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
