package repro

import repro.baselines.{ClusteredIndex, FullScan, GridFile, HyperOctree, KdTree, RStarTree, UBTree, ZOrderIndex}
import repro.core.{CdfFlattening, FloodIndex, Layout}
import repro.store.{ColumnStore, MultiDimIndex, RangeQuery}

import java.io.PrintWriter
import scala.util.Random

/** Prints what every index answers on fixed stores and queries, so two
  * versions of the engine can be compared with one `diff`:
  *
  * {{{
  * sbt "Test/runMain repro.Equivalence equivalence.txt"
  * }}}
  *
  * For each store (`TestData.randomStore` at d = 2, 4, 5, 7, a store of
  * `Long` extremes, 0-row and 1-row stores) it builds all nine indexes (the
  * paged ones at two page sizes, the clustered index on two dimensions and
  * Flood on two layouts), prints each one's `sizeBytes` (for Flood also a
  * hash of its cell table and an order-sensitive checksum of its reordered
  * store, so a changed layout shows even where no answer does), then one
  * line per query with `count`, `sum` and `scanned`, and for Flood every `FloodStats`
  * counter. The queries are the unfiltered one, random ones, inverted ones
  * and ones bounded by `Long` extremes. Timings are not printed. An index
  * that throws prints the exception's class in place of its answer. Writes
  * to the file named by the first argument, or to standard output.
  *
  * `golden` prints a reduced run (the d = 2 and d = 5 random stores, the
  * extremes and the 0- and 1-row stores, fewer queries) that
  * `EquivalenceGoldenSpec` compares with `src/test/resources/equivalence-golden.txt`.
  */
object Equivalence {

  private val Extremes = Array(Long.MinValue, Long.MinValue + 1, -1L, 0L, 1L, Long.MaxValue - 1, Long.MaxValue)

  def main(args: Array[String]): Unit = {
    val out = if (args.nonEmpty) new PrintWriter(args(0)) else new PrintWriter(System.out)
    write(out, Seq(2, 4, 5, 7), randomQueries = 80, extremeQueries = 40)
    out.flush()
    if (args.nonEmpty) out.close()
  }

  /** The reduced run checked in as the golden output. */
  def golden(out: PrintWriter): Unit = write(out, Seq(2, 5), randomQueries = 20, extremeQueries = 10)

  private def write(out: PrintWriter, dims: Seq[Int], randomQueries: Int, extremeQueries: Int): Unit = {
    val stores = dims.map(d => s"random-d$d" -> TestData.randomStore(3000, d, seed = 700 + d)) ++
      Seq("extremes-d3" -> extremeStore(2500, 3, seed = 711), "rows0-d3" -> TestData.randomStore(0, 3, seed = 712),
        "rows1-d3" -> TestData.randomStore(1, 3, seed = 713))
    for ((name, store) <- stores) report(out, name, store, randomQueries, extremeQueries)
  }

  /** Values drawn from the `Long` extremes, and from -3..3. */
  private def extremeStore(n: Int, d: Int, seed: Long): ColumnStore = {
    val rng = new Random(seed)
    new ColumnStore(Array.tabulate(d)(k => s"x$k"), Array.fill(d)(Array.fill(n) {
      if (rng.nextBoolean()) Extremes(rng.nextInt(Extremes.length)) else rng.nextInt(7).toLong - 3
    }))
  }

  private def queries(store: ColumnStore, rng: Random, randomQueries: Int, extremeQueries: Int): Seq[RangeQuery] = {
    val d = store.numDims
    val random = if (store.numRows == 0) Seq.empty else Seq.fill(randomQueries)(TestData.randomQuery(store, rng))
    val inverted = (0 until d).map(k => RangeQuery.of(d, k -> (5L, 4L)))
    val extreme = Seq.fill(extremeQueries) {
      val q = RangeQuery.full(d)
      for (k <- 0 until d if rng.nextBoolean()) {
        val a = Extremes(rng.nextInt(Extremes.length)); val b = Extremes(rng.nextInt(Extremes.length))
        q.lo(k) = math.min(a, b); q.hi(k) = math.max(a, b)
      }
      q
    }
    (RangeQuery.full(d) +: random) ++ inverted ++ extreme
  }

  private def indexes(store: ColumnStore, aggDim: Int): Seq[(String, () => MultiDimIndex)] = {
    val d = store.numDims
    val order = Array.range(0, d)
    val flat = CdfFlattening.train(store)
    val layouts = Seq(Layout(order, Array.fill(d - 1)(4)), Layout(order.reverse, Array.fill(d - 1)(2)))
    Seq[(String, () => MultiDimIndex)](
      "fullscan" -> (() => new FullScan(store, aggDim)),
      "clustered-0" -> (() => new ClusteredIndex(store, 0, aggDim)),
      s"clustered-${d - 1}" -> (() => new ClusteredIndex(store, d - 1, aggDim))) ++
      Seq(64, 256).flatMap(ps => Seq[(String, () => MultiDimIndex)](
        s"zorder-$ps" -> (() => new ZOrderIndex(store, order, ps, aggDim)),
        s"ubtree-$ps" -> (() => new UBTree(store, order, ps, aggDim)),
        s"octree-$ps" -> (() => new HyperOctree(store, ps, aggDim)),
        s"kdtree-$ps" -> (() => new KdTree(store, order, ps, aggDim)),
        s"gridfile-$ps" -> (() => new GridFile(store, ps, aggDim)),
        s"rtree-$ps" -> (() => new RStarTree(store, order, ps, aggDim)))) ++
      layouts.zipWithIndex.map { case (l, i) =>
        s"flood-$i" -> (() => new FloodIndex(store, l, flat, aggDim): MultiDimIndex)
      }
  }

  private def report(out: PrintWriter, name: String, store: ColumnStore,
                     randomQueries: Int, extremeQueries: Int): Unit = {
    val aggDim = store.numDims - 1
    val qs = queries(store, new Random(store.numDims * 31L + store.numRows), randomQueries, extremeQueries)
    for ((idxName, build) <- indexes(store, aggDim)) {
      val tag = s"$name $idxName"
      attempt(build()) match {
        case Left(err) => out.println(s"$tag build $err")
        case Right(idx) =>
          out.println(s"$tag sizeBytes ${idx.sizeBytes}")
          idx match {
            case f: FloodIndex =>
              out.println(f"$tag layout cells ${fold(Seq(f.cellTable.map(_.toLong)))}%016x " +
                f"data ${fold(f.data.columns.toSeq)}%016x")
            case _ =>
          }
          for ((q, i) <- qs.zipWithIndex) {
            val line = attempt(idx match {
              case f: FloodIndex =>
                val s = f.queryWithStats(q)
                s"count ${s.count} sum ${s.sum} scanned ${s.scanned} exact ${s.exactPoints} " +
                  s"cells ${s.cellsInRect} nonempty ${s.nonEmptyCells}"
              case _ =>
                val r = idx.query(q)
                s"count ${r.count} sum ${r.sum} scanned ${r.scanned}"
            }).fold(identity, identity)
            out.println(s"$tag q$i $line")
          }
      }
    }
  }

  /** FNV-style order-sensitive 64-bit fold of every value, column by column. */
  private def fold(cols: Seq[Array[Long]]): Long = {
    var h = 0xcbf29ce484222325L
    for (col <- cols) {
      var i = 0
      while (i < col.length) { h = (h ^ col(i)) * 0x100000001b3L; h ^= h >>> 29; i += 1 }
    }
    h
  }

  private def attempt[T](f: => T): Either[String, T] =
    try Right(f) catch { case e: Exception => Left(s"error ${e.getClass.getName}") }
}
