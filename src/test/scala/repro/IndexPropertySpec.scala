package repro

import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.{ClusteredIndex, FullScan, GridFile, HyperOctree, KdTree, RStarTree, UBTree, ZOrderIndex}
import repro.core.{CdfFlattening, FloodIndex, Layout}
import repro.store.{ColumnStore, MultiDimIndex, RangeQuery, Scan}

/** The engine's central property, checked by ScalaCheck: every one of the
  * nine indexes answers COUNT and SUM (which wraps mod 2^64) exactly as
  * `Scan.brute` does, on generated stores of 0 to 300 rows and 1 to 7
  * dimensions whose columns are random over all of `Long`, full of
  * duplicates, constant or drawn from the `Long` extremes, under random Flood
  * layouts and small page sizes, for unfiltered, point, one-sided, two-sided
  * and inverted ranges with bounds from the data and from the extremes.
  *
  * The scalatest-ScalaCheck bridge is not a dependency, so the suite runs
  * `Test.check` with a fixed initial seed and asserts that it passed.
  */
class IndexPropertySpec extends AnyFunSuite {
  import IndexPropertySpec._

  test("all nine indexes match brute force on generated stores, layouts and queries") {
    val params = Test.Parameters.default
      .withMinSuccessfulTests(200)
      .withWorkers(1)
      .withInitialSeed(Seed(20200614L))
    val result = Test.check(params, matchesBrute)
    assert(result.passed, Pretty.pretty(result))
  }
}

object IndexPropertySpec {

  private val Extremes = Seq(Long.MinValue, Long.MinValue + 1, -1L, 0L, 1L, Long.MaxValue - 1, Long.MaxValue)
  private val anyLong = Gen.choose(Long.MinValue, Long.MaxValue)

  /** A store, the dimension SUM aggregates, one layout (Flood's order and
    * columns; the trees' and curves' dimension order), one page size and the
    * queries to ask.
    */
  final case class Case(store: ColumnStore, aggDim: Int, order: Array[Int], cols: Array[Int],
                        sortDim: Int, pageSize: Int, queries: Seq[RangeQuery]) {
    override def toString: String =
      s"Case(${store.numRows} rows x ${store.numDims} dims, aggDim $aggDim, order ${order.mkString(",")}, " +
        s"cols ${cols.mkString(",")}, clustered on $sortDim, pageSize $pageSize, columns " +
        store.columns.map(_.take(8).mkString("[", ",", if (store.numRows > 8) ",...]" else "]")).mkString(" ") + ")"
  }

  private def column(n: Int): Gen[Array[Long]] = Gen.oneOf(
    Gen.containerOfN[Array, Long](n, anyLong),
    Gen.containerOfN[Array, Long](n, Gen.choose(0L, 3L)),
    anyLong.map(v => Array.fill(n)(v)),
    Gen.containerOfN[Array, Long](n, Gen.oneOf(Extremes)),
    Gen.containerOfN[Array, Long](n, Gen.frequency(3 -> Gen.choose(-1000L, 1000L), 1 -> Gen.oneOf(Extremes))))

  /** A query bound: near a value of the column, an extreme or any `Long`. */
  private def bound(col: Array[Long]): Gen[Long] = {
    val near =
      if (col.isEmpty) Gen.oneOf(Extremes)
      else for (i <- Gen.choose(0, col.length - 1); delta <- Gen.choose(-2L, 2L)) yield col(i) + delta
    Gen.frequency(4 -> near, 1 -> Gen.oneOf(Extremes), 1 -> anyLong)
  }

  private def range(col: Array[Long]): Gen[(Long, Long)] = Gen.frequency(
    2 -> Gen.const((Long.MinValue, Long.MaxValue)),
    2 -> bound(col).map(v => (v, v)),
    1 -> bound(col).map(v => (v, Long.MaxValue)),
    1 -> bound(col).map(v => (Long.MinValue, v)),
    3 -> (for (a <- bound(col); b <- bound(col)) yield (math.min(a, b), math.max(a, b))),
    1 -> (for (a <- bound(col); b <- bound(col)) yield
      if (a != b) (math.max(a, b), math.min(a, b)) else if (a != Long.MinValue) (a, a - 1) else (a + 1, a)))

  private def query(store: ColumnStore): Gen[RangeQuery] =
    Gen.sequence[Seq[(Long, Long)], (Long, Long)](store.columns.toSeq.map(range)).map { rs =>
      RangeQuery(rs.map(_._1).toArray, rs.map(_._2).toArray)
    }

  val cases: Gen[Case] = for {
    d <- Gen.choose(1, 7)
    n <- Gen.frequency(1 -> Gen.const(0), 1 -> Gen.const(1), 4 -> Gen.choose(2, 300))
    columns <- Gen.sequence[Seq[Array[Long]], Array[Long]](Seq.fill(d)(column(n)))
    store = new ColumnStore(Array.tabulate(d)(k => s"c$k"), columns.toArray)
    aggDim <- Gen.choose(0, d - 1)
    keys <- Gen.listOfN(d, Gen.choose(0.0, 1.0))
    cols <- Gen.containerOfN[Array, Int](d - 1, Gen.choose(1, 8))
    sortDim <- Gen.choose(0, d - 1)
    pageSize <- Gen.oneOf(1, 2, 3, 8, 32)
    queries <- Gen.listOfN(12, query(store))
  } yield Case(store, aggDim, (0 until d).sortBy(keys).toArray, cols, sortDim, pageSize, queries)

  private def indexes(c: Case): Seq[MultiDimIndex] = {
    val s = c.store
    Seq(
      new FullScan(s, c.aggDim),
      new ClusteredIndex(s, c.sortDim, c.aggDim),
      new ZOrderIndex(s, c.order, c.pageSize, c.aggDim),
      new UBTree(s, c.order, c.pageSize, c.aggDim),
      new HyperOctree(s, c.pageSize, c.aggDim),
      new KdTree(s, c.order, c.pageSize, c.aggDim),
      new GridFile(s, c.pageSize, c.aggDim),
      new RStarTree(s, c.order, c.pageSize, c.aggDim),
      new FloodIndex(s, Layout(c.order, c.cols), CdfFlattening.train(s), c.aggDim))
  }

  val matchesBrute: Prop = Prop.forAllNoShrink(cases) { c =>
    val idxs = indexes(c)
    val wrong = for {
      q <- c.queries
      expected = Scan.brute(c.store, q, c.aggDim)
      idx <- idxs
      r = idx.query(q)
      if (r.count, r.sum) != expected
    } yield s"${idx.name} on $q: (${r.count}, ${r.sum}), brute force $expected"
    wrong.isEmpty :| wrong.take(3).mkString("; ")
  }
}
