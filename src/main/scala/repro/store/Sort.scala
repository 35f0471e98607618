package repro.store

/** How every index sorts rows into its layout: a stable sort of row ids by a
  * `Long` key, on primitive arrays (no boxed `Integer` comparator).
  *
  * One implementation sorts (key, row) pairs held in two parallel arrays: a
  * least-significant-digit radix sort on the key's bytes, with a pass only
  * for the bytes in which the keys differ (a key column spanning a few
  * million values takes three), and an insertion sort for short inputs.
  * Pairs with equal keys keep their order, so a layout is a function of the
  * input order alone.
  */
object Sort {

  private final val InsertionMax = 64
  private final val Radix = 256

  /** Row ids `0 until key.length` ordered by `key(row)`, ties by row id. */
  def order(key: Array[Long]): Array[Int] = sorted(key.clone(), Array.range(0, key.length))

  /** Stably sort `rows(from until until)` by `key(row)`. */
  def byKey(rows: Array[Int], key: Array[Long], from: Int, until: Int): Unit = {
    val n = until - from
    if (n < 2) return
    val k = new Array[Long](n)
    val r = java.util.Arrays.copyOfRange(rows, from, until)
    var i = 0
    while (i < n) { k(i) = key(r(i)); i += 1 }
    System.arraycopy(sorted(k, r), 0, rows, from, n)
  }

  /** `rows` ordered stably by `keys` (`keys(i)` is the key of `rows(i)`):
    * either `rows` itself or a new array, as the radix passes alternate
    * between the given arrays and two new ones. Both inputs are overwritten.
    */
  private def sorted(keys: Array[Long], rows: Array[Int]): Array[Int] = {
    val n = keys.length
    if (n <= InsertionMax) { insertion(keys, rows, n); return rows }
    // the bytes in which some key differs from the first; only these get a pass
    var diff = 0L
    var i = 0
    while (i < n) { diff |= keys(i) ^ keys(0); i += 1 }
    val digits = (0 until 8).filter(b => ((diff >>> (8 * b)) & (Radix - 1)) != 0).toArray
    // byte b of a key is taken from key ^ Long.MinValue, whose unsigned
    // order is the key's signed order
    val hist = new Array[Int](digits.length * Radix)
    i = 0
    while (i < n) {
      val u = keys(i) ^ Long.MinValue
      var j = 0
      while (j < digits.length) { hist(j * Radix + ((u >>> (8 * digits(j))).toInt & (Radix - 1))) += 1; j += 1 }
      i += 1
    }
    var k = keys; var r = rows
    var kOut = new Array[Long](n)
    var rOut = new Array[Int](n)
    val next = new Array[Int](Radix)
    var j = 0
    while (j < digits.length) {
      var sum = 0
      var d = 0
      while (d < Radix) { next(d) = sum; sum += hist(j * Radix + d); d += 1 }
      val shift = 8 * digits(j)
      i = 0
      while (i < n) {
        val v = k(i)
        val b = ((v ^ Long.MinValue) >>> shift).toInt & (Radix - 1)
        val p = next(b)
        kOut(p) = v; rOut(p) = r(i)
        next(b) = p + 1
        i += 1
      }
      val tk = k; k = kOut; kOut = tk
      val tr = r; r = rOut; rOut = tr
      j += 1
    }
    r
  }

  private def insertion(k: Array[Long], r: Array[Int], n: Int): Unit = {
    var i = 1
    while (i < n) {
      val kv = k(i); val rv = r(i)
      var j = i - 1
      while (j >= 0 && k(j) > kv) { k(j + 1) = k(j); r(j + 1) = r(j); j -= 1 }
      k(j + 1) = kv; r(j + 1) = rv
      i += 1
    }
  }
}
