package repro

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CdfFlattening, FloodIndex}
import repro.store.RangeQuery

import java.io.{PrintWriter, StringWriter}
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

/** Every index's answers, counters and sizes on `Equivalence.golden`'s
  * stores and queries, against the output checked in under
  * `src/test/resources/equivalence-golden.txt`. A change that alters a
  * counter on purpose replaces that file with the one this test writes to
  * `target/` and says why.
  */
class EquivalenceGoldenSpec extends AnyFunSuite {

  test("a reduced Equivalence run reproduces the golden output line for line") {
    val sw = new StringWriter
    val pw = new PrintWriter(sw)
    Equivalence.golden(pw)
    pw.flush()
    val actual = sw.toString
    val in = getClass.getResourceAsStream("/equivalence-golden.txt")
    assert(in != null, "equivalence-golden.txt is missing from the test resources")
    val expected = try new String(in.readAllBytes(), StandardCharsets.UTF_8) finally in.close()
    if (actual != expected) {
      val path = Paths.get("target", "equivalence-golden.txt")
      Files.createDirectories(path.getParent)
      Files.write(path, actual.getBytes(StandardCharsets.UTF_8))
      val a = actual.linesIterator.toVector; val e = expected.linesIterator.toVector
      val i = a.indices.find(i => i >= e.length || a(i) != e(i)).getOrElse(a.length)
      fail(s"line ${i + 1} differs: expected '${e.lift(i).getOrElse("<end>")}', got '${a.lift(i).getOrElse("<end>")}' " +
        s"(${e.length} lines expected, ${a.length} produced; the run's output is in $path)")
    }
  }

  test("the golden's many-cells Flood case splits its unfiltered query over the workers") {
    val store = Equivalence.manyCellsStore
    val idx = new FloodIndex(store, Equivalence.ManyCellsLayout, CdfFlattening.train(store), aggDim = 3)
    assert(idx.queryWithStats(RangeQuery.full(4)).nonEmptyCells >= FloodIndex.ParallelMinCells)
  }
}
