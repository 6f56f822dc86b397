package atrbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import scala.collection.mutable

/** One timed interval around a call into a library layer.
  *
  * @param parent  id of the enclosing span, -1 at the top
  * @param role    what the call served (e.g. `refresh` for a decomposition
  *                timed after `FollowerReuse.refresh`)
  * @param measure true for a call the replay makes only to time a step the
  *                library performs inside a larger call; such spans are
  *                left out of the attribution of wall time
  */
final case class Span(id: Int, parent: Int, name: String, role: String,
                      startNs: Long, endNs: Long, measure: Boolean) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** In-memory span and counter store for one traced run, written out once at
  * the end. Spans of one run share the trace id. Not thread-safe: spans are
  * opened on the thread that submits Spark jobs; task timings are attached
  * afterwards with [[record]].
  */
final class Tracer(val traceId: String) {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private val counters = mutable.LinkedHashMap.empty[String, Double]
  private val samples = mutable.HashMap.empty[String, mutable.ArrayBuilder.ofDouble]
  private var open: List[Int] = Nil
  private var nextId = 0

  def span[T](name: String, role: String = "", measure: Boolean = false)(body: => T): T = {
    val id = nextId; nextId += 1
    val parent = open.headOption.getOrElse(-1)
    open = id :: open
    val t0 = System.nanoTime()
    try body
    finally {
      spans += Span(id, parent, name, role, t0, System.nanoTime(), measure)
      open = open.tail
    }
  }

  /** Attach a span timed elsewhere (a Spark task in this JVM) under the
    * most recent span named `parentName`.
    */
  def record(name: String, parentName: String, startNs: Long, endNs: Long): Unit = {
    val parent = spans.reverseIterator.find(_.name == parentName).map(_.id).getOrElse(-1)
    spans += Span(nextId, parent, name, "", startNs, endNs, measure = false)
    nextId += 1
  }

  def count(key: String, v: Double): Unit = counters(key) = counters.getOrElse(key, 0.0) + v
  def counter(key: String): Double = counters.getOrElse(key, 0.0)

  /** Keep one observation of `key` (per-item timings that are not spans). */
  def sample(key: String, v: Double): Unit =
    samples.getOrElseUpdate(key, new mutable.ArrayBuilder.ofDouble) += v
  def samplesOf(key: String): Array[Double] =
    samples.get(key).map(_.result()).getOrElse(Array.emptyDoubleArray)

  def all: Seq[Span] = spans.toSeq
  def named(name: String, role: String = null): Seq[Span] =
    spans.iterator.filter(s => s.name == name && (role == null || s.role == role)).toSeq
  def totalMs(name: String, role: String = null): Double = named(name, role).map(_.ms).sum

  /** Write every span, then every counter, as JSON lines. */
  def write(path: Path): Unit = {
    val sb = new StringBuilder
    spans.sortBy(_.id).foreach { s =>
      sb ++= s"""{"trace":"$traceId","id":${s.id},"parent":${s.parent},"name":"${s.name}",""" +
        s""""role":"${s.role}","start_ns":${s.startNs},"end_ns":${s.endNs},"measure":${s.measure}}""" + "\n"
    }
    counters.foreach { case (k, v) => sb ++= s"""{"trace":"$traceId","counter":"$k","value":$v}""" + "\n" }
    Files.createDirectories(path.getParent)
    Files.write(path, sb.toString.getBytes(StandardCharsets.UTF_8))
  }
}
