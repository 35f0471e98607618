package repro.store

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

/** `Sort` against the boxed, stable `java.util.Arrays.sort` it replaced. */
class SortSpec extends AnyFunSuite {

  /** The reference: a stable comparator sort of boxed row ids. */
  private def reference(rows: Array[Int], key: Array[Long], from: Int, until: Int): Array[Int] = {
    val boxed = rows.slice(from, until).map(Int.box)
    java.util.Arrays.sort(boxed, (a: Integer, b: Integer) => java.lang.Long.compare(key(a), key(b)))
    rows.take(from) ++ boxed.map(_.intValue) ++ rows.drop(until)
  }

  private def keys(n: Int, rng: Random): Seq[Array[Long]] = Seq(
    Array.fill(n)(rng.nextLong()),
    Array.fill(n)(rng.nextInt(3).toLong), // heavy duplicates: stability decides the order
    Array.fill(n)(if (rng.nextBoolean()) Long.MinValue else Long.MaxValue),
    Array.tabulate(n)(i => (n - i).toLong), // descending
    Array.tabulate(n)(_.toLong), // already sorted
    Array.fill(n)(rng.nextLong() >> 40), // keys that differ only in their low bytes, either sign
    Array.fill(n)(rng.nextInt(1 << 20).toLong << 24), // ... only in middle bytes
    Array.fill(n)(-rng.nextInt(1000).toLong))

  test("matches the stable boxed sort on every length and key shape") {
    val rng = new Random(1)
    for (n <- Seq(0, 1, 2, 16, 17, 33, 64, 65, 1000, 5000); key <- keys(n, rng)) {
      val rows = rng.shuffle(Array.range(0, n).toSeq).toArray
      val expect = reference(rows, key, 0, n)
      Sort.byKey(rows, key, 0, n)
      assert(rows.sameElements(expect), s"n=$n")
      assert(Sort.order(key).sameElements(reference(Array.range(0, n), key, 0, n)), s"order n=$n")
    }
  }

  test("sorts only the given sub-slice") {
    val rng = new Random(2)
    for (n <- Seq(16, 17, 33, 64, 65, 1000); key <- keys(n, rng)) {
      val from = rng.nextInt(n / 2)
      val until = from + rng.nextInt(n - from + 1)
      val rows = rng.shuffle(Array.range(0, n).toSeq).toArray
      val expect = reference(rows, key, from, until)
      Sort.byKey(rows, key, from, until)
      assert(rows.sameElements(expect), s"n=$n [$from, $until)")
    }
  }

  test("order is the stable permutation by key") {
    val key = Array(3L, Long.MinValue, 3L, Long.MaxValue, -1L, 3L, Long.MinValue)
    assert(Sort.order(key).sameElements(Array(1, 6, 4, 0, 2, 5, 3)))
    assert(Sort.order(Array.emptyLongArray).isEmpty)
  }
}
