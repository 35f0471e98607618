package floodbench

import java.io.PrintWriter
import java.nio.file.{Files, Path}

import scala.collection.mutable.ArrayBuffer

/** Spans recorded by the benchmark around each call into a module of the
  * program: name, start, end and the span that caused it. Spans stay in
  * memory and are written out once, when the run ends. With tracing off,
  * `span` only runs its body.
  *
  * Per-query spans of the timed loop are far too many to keep as objects;
  * they go into a fixed-size primitive buffer instead (`QuerySpans`).
  */
final class Tracer(val enabled: Boolean) {
  private final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long)

  private val spans = ArrayBuffer.empty[Span]
  private var stack: List[Int] = Nil
  private val origin = System.nanoTime()

  /** Run `body` inside a span named `name`, child of the innermost open span. */
  def span[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val id = spans.length
      val parent = stack.headOption.getOrElse(-1)
      spans += null // reserve the id; filled in when the span closes
      stack = id :: stack
      val t0 = System.nanoTime()
      try body
      finally {
        spans(id) = Span(id, parent, name, t0 - origin, System.nanoTime() - origin)
        stack = stack.tail
      }
    }

  /** Id of the innermost open span, or -1 (parent of per-query spans). */
  def current: Int = stack.headOption.getOrElse(-1)

  /** Write every span (and the per-query spans) as JSON lines. */
  def write(path: Path, queries: Option[QuerySpans]): Unit = {
    Files.createDirectories(path.getParent)
    val out = new PrintWriter(Files.newBufferedWriter(path))
    try {
      for (s <- spans if s != null)
        out.println(s"""{"id":${s.id},"parent":${s.parent},"name":"${s.name}","start_ns":${s.startNs},"end_ns":${s.endNs}}""")
      queries.foreach(_.write(out, spans.length, origin))
    } finally out.close()
  }
}

/** Per-query spans of the traced loop with the counters `FloodStats` returns
  * at the query boundary. The buffer holds at most `capacity` queries; later
  * queries are counted in `dropped` but not kept.
  */
final class QuerySpans(capacity: Int, val parent: Int) {
  val query = new Array[Int](capacity)
  val start = new Array[Long](capacity)
  val end = new Array[Long](capacity)
  val projNs = new Array[Long](capacity)
  val refineNs = new Array[Long](capacity)
  val scanNs = new Array[Long](capacity)
  val scanned = new Array[Long](capacity)
  var size = 0
  var dropped = 0L

  def record(qi: Int, t0: Long, t1: Long, st: repro.core.FloodStats): Unit =
    if (size < capacity) {
      query(size) = qi; start(size) = t0; end(size) = t1
      projNs(size) = st.projectionNanos; refineNs(size) = st.refineNanos
      scanNs(size) = st.scanNanos; scanned(size) = st.scanned
      size += 1
    } else dropped += 1

  def write(out: PrintWriter, firstId: Int, origin: Long): Unit = {
    var i = 0
    while (i < size) {
      out.println(s"""{"id":${firstId + i},"parent":$parent,"name":"core.FloodIndex.queryWithStats","query":${query(i)},""" +
        s""""start_ns":${start(i) - origin},"end_ns":${end(i) - origin},"projection_ns":${projNs(i)},""" +
        s""""refine_ns":${refineNs(i)},"scan_ns":${scanNs(i)},"scanned":${scanned(i)}}""")
      i += 1
    }
  }
}
