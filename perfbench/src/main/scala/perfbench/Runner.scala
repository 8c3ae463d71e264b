package perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import repro.benchutil.Env
import repro.core.planner.ZPlan
import repro.core.query.Query
import repro.kv.KVMetrics
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** One checked read: Zidian latency runs from the call into Zidian until
  * the result rows are collected; the baseline's likewise.
  */
final case class ReadRec(op: Int, template: String, traced: Boolean, zidianMs: Double,
                         baselineMs: Double, gcMs: Double, rows: Int, leaked: Int,
                         zidian: KVMetrics, baseline: KVMetrics, plan: ZPlan)

/** The single closed-loop client. Every operation runs in its own Spark job
  * groups (`z*`: Zidian, `b`: baseline, `k`: checks), and its
  * checks run outside the timed windows.
  */
final class Runner(spark: SparkSession) {
  private val sc = spark.sparkContext
  val reads = mutable.ArrayBuffer.empty[ReadRec]
  var attempted = 0
  var failed = 0
  private var nextOp = 1

  private def gcMs: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum.toDouble

  private def begin(): Int = {
    val op = nextOp
    nextOp += 1
    attempted += 1
    Trace.op = op
    op
  }

  /** Release frames the operation left persisted, as Spark's registry shows them. */
  private def releaseSince(before: Set[Int]): Unit =
    sc.getPersistentRDDs.foreach { case (id, rdd) => if (!before(id)) rdd.unpersist(blocking = false) }

  def read(env: Env, template: String, q: Query): Unit = {
    val op = begin()
    val traced = Trace.enabled
    val before = sc.getPersistentRDDs.keySet.toSet
    try Trace.span("bench.read") {
      val gc0 = gcMs
      val t0 = System.nanoTime()
      val (rows, df, metrics, plan, exec) = Trace.span("bench.zidian") {
        val (df, metrics, plan, exec) =
          if (traced) {
            sc.setJobGroup(s"zd:$op", template)
            val (_, plan) = Sut.decide(env, q)
            sc.setJobGroup(s"zx:$op", template)
            val exec = Sut.executor(env)
            (Sut.run(exec, plan), exec.metrics, plan, exec)
          } else {
            sc.setJobGroup(s"zx:$op", template)
            val a = Sut.answer(env, q)
            (a.df, a.metrics, a.plan, a.executor)
          }
        sc.setJobGroup(s"zc:$op", template)
        (Sut.collect("dataflow", df), df, metrics, plan, exec)
      }
      val zMs = (System.nanoTime() - t0) / 1e6
      val gc = gcMs - gc0
      val leaked = sc.getPersistentRDDs.keySet.count(id => !before(id))
      Sut.release(exec)
      releaseSince(before)

      sc.setJobGroup(s"b:$op", template)
      val t1 = System.nanoTime()
      val (bdf, bm) = Sut.baseline(env, q)
      val brows = Sut.collect("baseline", bdf)
      val bMs = (System.nanoTime() - t1) / 1e6

      sc.setJobGroup(s"k:$op", template)
      Trace.span("bench.check") {
        val same = Sut.canon(spark, rows, df.schema) == Sut.canon(spark, brows, bdf.schema)
        Sut.minimize(env, q)
        Sut.preserve(env, q)
        val report = Sut.scanFreeCheck(env, q)
        Sut.planFrom(env, report)
        val thm4 = report.scanFree == plan.scanFree
        val prop7 = !plan.scanFree || metrics.scans == 0
        if (!(same && thm4 && prop7)) {
          failed += 1
          Console.err.println(s"[perfbench] op $op $template wrong: answers equal=$same " +
            s"Thm4 verdict=${report.scanFree} plan=${plan.scanFree} scans=${metrics.scans}")
        }
      }
      sc.clearJobGroup()
      reads += ReadRec(op, template, traced, zMs, bMs, gc, rows.length, leaked, metrics, bm, plan)
    } catch {
      case NonFatal(e) =>
        releaseSince(before)
        failed += 1
        Console.err.println(s"[perfbench] op $op $template failed: $e")
    }
  }

  /** Forget the records (not the failure counts), e.g. after warm-up. */
  def clearRecords(): Unit = reads.clear()
}
