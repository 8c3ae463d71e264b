package perfbench

import java.io.PrintWriter
import java.nio.file.{Files, Path}
import org.apache.spark.scheduler._
import scala.collection.mutable

/** One timed call. The layer is the name's prefix up to the first dot. */
final case class Span(id: Int, parent: Int, op: Int, name: String, startNs: Long, endNs: Long) {
  def layer: String = name.takeWhile(_ != '.')
  def ns: Long = endNs - startNs
}

/** In-memory span recorder for the traced run; when off, `span` only
  * evaluates its body. The benchmark is single-threaded, so a span's
  * children never overlap and its self time is its duration minus theirs.
  */
object Trace {
  var enabled = false
  /** Operation id stamped on every span opened from now on. */
  var op = 0

  private val spans = mutable.ArrayBuffer.empty[Span]
  private var stack: List[Int] = Nil
  private var nextId = 1

  def span[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = stack.headOption.getOrElse(0)
      stack = id :: stack
      val t0 = System.nanoTime()
      try body
      finally {
        spans += Span(id, parent, op, name, t0, System.nanoTime())
        stack = stack.tail
      }
    }

  def recorded: Seq[Span] = spans.toSeq

  /** Self nanoseconds per layer over `ss` (children looked up in `ss`). */
  def selfNsByLayer(ss: Seq[Span]): Map[String, Long] = {
    val childNs = ss.groupMapReduce(_.parent)(_.ns)(_ + _)
    ss.groupMapReduce(_.layer)(s => s.ns - childNs.getOrElse(s.id, 0L))(_ + _)
  }

  /** Write every recorded span as one JSON object per line. */
  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val w = new PrintWriter(Files.newBufferedWriter(path))
    try spans.foreach { s =>
      w.println(s"""{"id":${s.id},"parent":${s.parent},"op":${s.op},"name":"${s.name}",""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs}}""")
    } finally w.close()
  }
}

/** Spark jobs, stages, tasks and shuffle bytes per job group. The benchmark
  * puts each phase of each operation in its own group (`phase:op`).
  */
final class JobCounter extends SparkListener {
  final class Tally {
    var jobs = 0L
    var stages = 0L
    var tasks = 0L
    var shuffleWriteBytes = 0L
  }

  private val byGroup = mutable.Map.empty[String, Tally]
  private val stageGroup = mutable.Map.empty[Int, String]

  private def groupOf(p: java.util.Properties): String =
    Option(p).flatMap(x => Option(x.getProperty("spark.jobGroup.id"))).getOrElse("")

  private def tally(g: String): Tally = byGroup.getOrElseUpdate(g, new Tally)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    tally(groupOf(e.properties)).jobs += 1
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    val g = groupOf(e.properties)
    stageGroup(e.stageInfo.stageId) = g
    tally(g).stages += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageGroup.get(e.stageId).foreach { g =>
      val t = tally(g)
      t.tasks += 1
      if (e.taskMetrics != null) t.shuffleWriteBytes += e.taskMetrics.shuffleWriteMetrics.bytesWritten
    }
  }

  /** Sum of the tallies of `phases` over the operations `ops`. */
  def sum(ops: Iterable[Int], phases: String*): Tally = synchronized {
    val out = new Tally
    for (op <- ops; phase <- phases) {
      byGroup.get(s"$phase:$op").foreach { t =>
        out.jobs += t.jobs; out.stages += t.stages
        out.tasks += t.tasks; out.shuffleWriteBytes += t.shuffleWriteBytes
      }
    }
    out
  }
}
