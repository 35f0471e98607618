package repro.store

import repro.SparkSpec
import repro.TestData

class ColumnStoreSpec extends SparkSpec {

  private val store = ColumnStore.of(
    "a" -> Array(5L, 1L, 9L, 3L),
    "b" -> Array(10L, 20L, 30L, 40L)
  )

  test("basic accessors") {
    assert(store.numRows == 4)
    assert(store.numDims == 2)
    assert(store(0, 2) == 9L)
    assert(store(1, 3) == 40L)
  }

  test("dimIndex resolves names and rejects unknowns") {
    assert(store.dimIndex("a") == 0)
    assert(store.dimIndex("b") == 1)
    intercept[IllegalArgumentException](store.dimIndex("zzz"))
  }

  test("reorder permutes all columns consistently") {
    val r = store.reorder(Array(3, 2, 1, 0))
    assert(r.columns(0).toSeq == Seq(3L, 9L, 1L, 5L))
    assert(r.columns(1).toSeq == Seq(40L, 30L, 20L, 10L))
  }

  test("reorder rejects wrong-length permutations") {
    intercept[IllegalArgumentException](store.reorder(Array(0, 1)))
  }

  test("min and max") {
    assert(store.min(0) == 1L && store.max(0) == 9L)
    assert(store.min(1) == 10L && store.max(1) == 40L)
  }

  test("prefixSums: exclusive prefix, sum over [s,e) = p(e)-p(s)") {
    intercept[IllegalStateException](store.prefixSums(1)) // only buildPrefixSums computes them
    store.buildPrefixSums(1)
    val p = store.prefixSums(1)
    assert(p.toSeq == Seq(0L, 10L, 30L, 60L, 100L))
    assert(p(3) - p(1) == 50L) // rows 1,2
  }

  test("ragged columns rejected") {
    intercept[IllegalArgumentException] {
      new ColumnStore(Array("x", "y"), Array(Array(1L), Array(1L, 2L)))
    }
  }

  test("dataBytes accounts 8 bytes per value") {
    assert(store.dataBytes == 2L * 4 * 8)
  }

  test("fromDataFrame collects long-castable columns") {
    import spark.implicits._
    val df = Seq((1, 10.0, "7"), (2, 20.0, "8")).toDF("i", "d", "s")
    val cs = ColumnStore.fromDataFrame(df, Seq("i", "d", "s"))
    assert(cs.numRows == 2 && cs.numDims == 3)
    assert(cs.columns(0).sorted.toSeq == Seq(1L, 2L))
    assert(cs.columns(1).sorted.toSeq == Seq(10L, 20L))
    assert(cs.columns(2).sorted.toSeq == Seq(7L, 8L))
  }

  test("fromDataFrame on SynthData lineitemMulti has the 7 declared dims") {
    val df = repro.SynthData.lineitemMulti(spark, 1000, seed = 1)
    val cs = ColumnStore.fromDataFrame(df,
      Seq("orderkey", "partkey", "suppkey", "quantity", "discount", "shipdate", "receiptdate"))
    assert(cs.numDims == 7)
    assert(cs.numRows == 1000)
    // receiptdate correlates with shipdate: always strictly later, within 30 days
    val ship = cs.columns(5); val rec = cs.columns(6)
    assert(ship.indices.forall(i => rec(i) > ship(i) && rec(i) <= ship(i) + 31))
  }

  test("random store generator produces varied dimensions") {
    val s = TestData.randomStore(500, 4, seed = 9)
    assert(s.numDims == 4 && s.numRows == 500)
    assert(s.max(2) < 8) // low-cardinality dim
    assert(s.max(0) > 1000) // high-cardinality dim
  }
}
