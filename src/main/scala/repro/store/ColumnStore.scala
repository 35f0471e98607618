package repro.store

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

/** In-memory integer column store — the substrate shared by Flood and every
  * baseline index (paper §7.1).
  *
  * All attributes are 64-bit integers, as in the paper: strings are assumed
  * dictionary-encoded and floating-point values scaled by a power of ten
  * before ingestion. Every index reorders the same `ColumnStore` via a row
  * permutation, so scan costs are comparable across indexes.
  *
  * @param names   attribute names, one per column
  * @param columns column-major data; all columns have identical length
  */
final class ColumnStore(val names: Array[String], val columns: Array[Array[Long]]) {
  require(columns.nonEmpty, "a ColumnStore needs at least one column")
  require(columns.forall(_.length == columns(0).length), "ragged columns")
  require(names.length == columns.length, "one name per column")

  /** Number of rows (points). */
  val numRows: Int = columns(0).length

  /** Number of columns (dimensions). */
  val numDims: Int = columns.length

  /** Value of dimension `dim` at row `row`. */
  @inline def apply(dim: Int, row: Int): Long = columns(dim)(row)

  /** Index of the named dimension. */
  def dimIndex(name: String): Int = {
    val i = names.indexOf(name)
    require(i >= 0, s"no such dimension: $name (have ${names.mkString(",")})")
    i
  }

  /** A new store whose row `i` is this store's row `perm(i)`. */
  def reorder(perm: Array[Int]): ColumnStore = {
    require(perm.length == numRows, "permutation length mismatch")
    val out = Array.ofDim[Array[Long]](numDims)
    var d = 0
    while (d < numDims) {
      val src = columns(d)
      val dst = new Array[Long](numRows)
      var i = 0
      while (i < numRows) { dst(i) = src(perm(i)); i += 1 }
      out(d) = dst
      d += 1
    }
    new ColumnStore(names, out)
  }

  /** Min value of a dimension (for quantization / grid bounds). */
  def min(dim: Int): Long = { val c = columns(dim); var m = Long.MaxValue; var i = 0; while (i < c.length) { if (c(i) < m) m = c(i); i += 1 }; m }

  /** Max value of a dimension. */
  def max(dim: Int): Long = { val c = columns(dim); var m = Long.MinValue; var i = 0; while (i < c.length) { if (c(i) > m) m = c(i); i += 1 }; m }

  private val prefix = new Array[Array[Long]](numDims)

  /** Compute and keep the exclusive prefix sums of a column — the paper's
    * cumulative-aggregation optimization (§7.1): `SUM` over an exact range
    * `[s,e)` is `prefix(e) - prefix(s)`, with no per-row access. Every index
    * calls this on its store's aggregation column while it builds, so the
    * O(n) pass counts as build time, not as the first query's scan time.
    */
  def buildPrefixSums(dim: Int): Unit = synchronized {
    if (prefix(dim) == null) {
      val c = columns(dim)
      val out = new Array[Long](numRows + 1)
      var i = 0
      while (i < numRows) { out(i + 1) = out(i) + c(i); i += 1 }
      prefix(dim) = out
    }
  }

  /** The prefix sums `buildPrefixSums(dim)` kept; it must have run. */
  def prefixSums(dim: Int): Array[Long] = synchronized {
    val p = prefix(dim)
    if (p == null) throw new IllegalStateException(s"prefix sums of column $dim were not built")
    p
  }

  /** Uncompressed payload size in bytes. */
  def dataBytes: Long = numDims.toLong * numRows * 8L
}

object ColumnStore {

  /** Collect the given (integer-valued) columns of a DataFrame into a store.
    * This is the bridge from Spark-generated synthetic data to the
    * single-threaded in-memory engine the paper's experiments run on.
    */
  def fromDataFrame(df: DataFrame, cols: Seq[String]): ColumnStore = {
    val rows = df.select(cols.map(c => col(c).cast("long")): _*).collect()
    val n = rows.length
    val out = Array.fill(cols.length)(new Array[Long](n))
    var i = 0
    while (i < n) {
      val r = rows(i)
      var d = 0
      while (d < cols.length) { out(d)(i) = r.getLong(d); d += 1 }
      i += 1
    }
    new ColumnStore(cols.toArray, out)
  }

  /** Build a store directly from column arrays (tests, generators). */
  def of(pairs: (String, Array[Long])*): ColumnStore =
    new ColumnStore(pairs.map(_._1).toArray, pairs.map(_._2).toArray)
}
