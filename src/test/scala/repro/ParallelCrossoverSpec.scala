package repro

import org.scalatest.funsuite.AnyFunSuite

import java.io.{PrintWriter, StringWriter}

/** `ParallelCrossover` at a small size, so the probe keeps compiling and
  * running: one chunk and all chunks must agree on every query (the probe
  * checks that itself) and every size and kind gets a timing.
  */
class ParallelCrossoverSpec extends AnyFunSuite {

  test("the parallel crossover probe runs at a small size and both ways agree") {
    val sw = new StringWriter
    val rows = ParallelCrossover.run(1 << 13, 2 to 6, passes = 1, queriesPerSize = 2, new PrintWriter(sw))
    assert(rows.map(r => (r.cells, r.kind)) == (2 to 6).flatMap(k => Seq((1 << k) -> "refine", (1 << k) -> "scan")))
    assert(rows.forall(r => r.serialUs > 0 && r.splitUs > 0 && r.medianCells > 0 && r.splitWins >= 0 && r.splitWins <= 1), rows)
    assert(sw.toString.linesIterator.size == 1 + rows.length)
  }

  test("the crossover is the smallest size from which the split query always wins") {
    def rows(size: Int, split: Double*) = split.map(ParallelCrossover.Row(size, "k", size.toLong, 100.0, _, 1.0))
    val rs = rows(1, 200, 50) ++ rows(2, 50, 50) ++ rows(4, 50, 200) ++ rows(8, 50, 50) ++ rows(16, 50, 99)
    assert(ParallelCrossover.crossover(rs).contains(8))
    assert(ParallelCrossover.crossover(rows(1, 200) ++ rows(2, 50, 100)).isEmpty)
    // a lower median is not enough: the split query must also win most pairs
    val rare = ParallelCrossover.Row(16, "k", 16L, 100.0, 50.0, ParallelCrossover.MinWins - 0.01)
    assert(ParallelCrossover.crossover(rows(8, 50) :+ rare).isEmpty)
  }
}
