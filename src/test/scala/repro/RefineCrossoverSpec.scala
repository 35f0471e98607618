package repro

import org.scalatest.funsuite.AnyFunSuite

import java.io.{PrintWriter, StringWriter}

/** `RefineCrossover` at tiny sizes, so the probe keeps compiling and
  * running: both searches must agree on every cell (the probe checks that
  * itself) and every size gets a timing.
  */
class RefineCrossoverSpec extends AnyFunSuite {

  test("the crossover probe runs at tiny sizes and both searches agree") {
    val sw = new StringWriter
    val rows = RefineCrossover.run(1 << 12, 4 to 12, passes = 1, refinesPerPass = 1 << 12, new PrintWriter(sw))
    assert(rows.map(_.rowsPerCell) == (4 to 12).map(1 << _))
    assert(rows.forall(r => r.plmNsPerCell > 0 && r.binaryNsPerCell > 0), rows)
    assert(sw.toString.linesIterator.size == 1 + rows.length)
  }

  test("the crossover is the smallest size from which the PLM always wins") {
    def row(size: Int, plm: Double) = RefineCrossover.Row(size, 1, plm, 100.0)
    assert(RefineCrossover.crossover(Seq(row(1, 200), row(2, 50), row(4, 200), row(8, 50), row(16, 50))).contains(8))
    assert(RefineCrossover.crossover(Seq(row(1, 200), row(2, 200))).isEmpty)
  }
}
