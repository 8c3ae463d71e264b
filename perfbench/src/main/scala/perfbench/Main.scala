package perfbench

import java.nio.file.Paths
import org.apache.spark.PerfbenchBus
import org.apache.spark.sql.SparkSession
import repro.benchutil.Env
import repro.core.planner.{KExtend, KJoin, KPlan, KScanKV, KScanRel}
import repro.core.query.Query
import repro.data.{Dataset, WorkQuery, Workloads}
import scala.util.Random

/** A workload: one dataset at a scale factor, the templates it cycles, and
  * why it exists.
  */
final case class Workload(name: String, ds: Dataset, sf: Double, templates: Seq[WorkQuery],
                          why: String)

/** The Zidian benchmark: one closed-loop client over one local-mode Spark session.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
  * }}}
  * Set-up (data generation, both stores, forced lazy statistics) runs
  * `SetupReps` times and reports the median; it also warms the JIT, and one
  * untimed read of the first template follows. Then the workload's
  * templates are cycled in a fixed order, in whole cycles, for at least
  * `--seconds`. With `--trace 0` the last stdout line holds the end-to-end
  * metrics. With `--trace 1` the first half runs untraced and the second
  * traced, and the line holds the per-layer metrics.
  */
object Main {
  val SetupReps = 3
  /** Measure at least this many whole cycles, so each template has more
    * than one sample and the tail's rank does not move with machine speed.
    */
  val MinCycles = 2

  // Sizes keep one run, set-up included, near 50 s on 4 cores; a Zidian
  // read costs 5-9 Spark jobs, whose fixed cost dominates at these sizes.
  val workloads: Seq[Workload] = Seq(
    Workload("bounded_point", Workloads.mot, 0.01, Workloads.mot.queries.filter(_.bounded),
      "MOT q1-q6 with seeded point constants: bounded queries, where extension steps and per-job overhead dominate"),
    Workload("analytic", Workloads.tpch, 0.005, Workloads.tpch.queries,
      "TPC-H: four extension chains with growing frontiers and four scans that bypass extension, so dataflow dominates"),
  )

  final case class Args(workload: Workload, seed: Long, seconds: Double, trace: Boolean,
                        traceOut: Option[String])

  private def parse(args: Array[String]): Args = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, sys.error(s"missing --$k"))
    val name = need("workload")
    Args(workloads.find(_.name == name).getOrElse(
           sys.error(s"unknown workload $name; known: ${workloads.map(_.name).mkString(", ")}")),
         need("seed").toLong, need("seconds").toDouble,
         need("trace") match { case "0" => false; case "1" => true; case t => sys.error(s"bad --trace $t") },
         kv.get("trace-out"))
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val cores = math.min(Runtime.getRuntime.availableProcessors, 4)
    val spark = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      // As in the repository's tests: no broadcast joins, so every join
      // of a plan shuffles.
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      // The data are small: one shuffle partition per task thread, and no
      // adaptive execution, which would run each shuffle stage as its own
      // job and re-plan between them. Either roughly doubles read latency
      // and set-up, leaving a run too few samples.
      .config("spark.sql.shuffle.partitions", cores.toString)
      .config("spark.sql.adaptive.enabled", "false")
      .getOrCreate()
    val jobs = new JobCounter
    spark.sparkContext.addSparkListener(jobs)
    try {
      val out = new Bench(spark, jobs, args).run()
      out.lines.foreach(println)
      println(out.json)
    } finally spark.stop()
  }
}

/** Set-up seconds of one repetition. */
final case class SetupRep(total: Double, gen: Double, taav: Double, baav: Double, degree: Double)

final case class Output(lines: Seq[String], json: String)

final class Bench(spark: SparkSession, jobs: JobCounter, args: Main.Args) {
  private val w = args.workload
  private val runner = new Runner(spark)
  private val rng = new Random(args.seed)

  private def secs(t0: Long): Double = (System.nanoTime() - t0) / 1e9
  private def timed[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, secs(t0))
  }

  /** Build the stores `SetupReps` times; keep the last. */
  private def setup(): (Env, Seq[SetupRep], (Long, Long)) = {
    var env: Option[Env] = None
    var shape = (0L, 0L)
    val reps = (1 to Main.SetupReps).map { _ =>
      env.foreach(Sut.close)
      val t0 = System.nanoTime()
      val (data, gen) = timed(Sut.generate(w.ds, spark, w.sf))
      val (taav, taavS) = timed(Sut.buildTaav(w.ds, data))
      val (baav, baavS) = timed(Sut.buildBaav(w.ds, data))
      val (_, degreeS) = timed(Sut.forceDegrees(baav))
      shape = Sut.forceShape(taav, baav)
      env = Some(Sut.env(w.ds, spark, w.sf, taav, baav))
      SetupRep(secs(t0), gen, taavS, baavS, degreeS)
    }
    (env.get, reps, shape)
  }

  def run(): Output = {
    Trace.enabled = args.trace
    val (env, reps, (cells, blocks)) = setup()
    Trace.enabled = false
    val storeMb = spark.sparkContext.getRDDStorageInfo.map(_.memSize).sum / 1e6
    val draws = Mix.draws(w.ds.name, new Mix.Domain(env))
    def instance(t: WorkQuery): Query = Mix.instantiate(t.q, draws(t.q.name)(rng))
    def read(t: WorkQuery): Unit = runner.read(env, t.q.name, instance(t))
    def measure(seconds: Double, minCycles: Int): Unit = {
      val deadline = System.nanoTime() + (seconds * 1e9).toLong
      var cycles = 0
      while ({ w.templates.foreach(read); cycles += 1; cycles < minCycles || System.nanoTime() < deadline }) ()
    }
    val t0 = System.nanoTime()
    read(w.templates.head) // warm-up
    runner.clearRecords()
    if (args.trace) {
      measure(args.seconds / 2, 1)
      Trace.enabled = true
      measure(args.seconds / 2, 1)
      Trace.enabled = false
    } else measure(args.seconds, Main.MinCycles)
    PerfbenchBus.drain(spark.sparkContext)
    Console.err.println(f"[perfbench] set-up ${reps.map(_.total).sum}%.1f s, then ${secs(t0)}%.1f s " +
      f"to the end of measuring (${runner.reads.size} reads)")
    args.traceOut.foreach(p => Trace.write(Paths.get(p)))
    new Report(w, runner, jobs, reps, storeMb, cells, blocks, args.trace).output
  }
}

/** Metrics of a finished run. */
final class Report(w: Workload, runner: Runner, jobs: JobCounter, reps: Seq[SetupRep],
                   storeMb: Double, cells: Long, blocks: Long, traced: Boolean) {
  import Report._

  private val untraced = runner.reads.filterNot(_.traced).toSeq
  private val tracedReads = runner.reads.filter(_.traced).toSeq

  /** Median over templates of each template's median, so the mix's
    * proportions within one run do not move it.
    */
  private def p50(rs: Seq[ReadRec], f: ReadRec => Double): Double =
    median(rs.groupBy(_.template).values.map(g => median(g.map(f))).toSeq)

  private def endToEnd: (Seq[Metric], Seq[String]) = {
    val rs = untraced
    val (tail, pct, n) = tailOf(rs.map(_.zidianMs))
    val metrics = Seq(
      Metric("setup_s", median(reps.map(_.total)), "s"),
      Metric("zidian_p50_ms", p50(rs, _.zidianMs), "ms"),
      Metric("zidian_tail_ms", tail, "ms"),
      Metric("zidian_qps", rs.size / rs.map(_.zidianMs / 1e3).sum, "1/s"),
      Metric("baseline_p50_ms", p50(rs, _.baselineMs), "ms"),
      Metric("spark_jobs_per_query", jobs.sum(rs.map(_.op), "zx", "zc").jobs.toDouble / rs.size, "count"),
      Metric("gets_per_query", mean(rs.map(_.zidian.gets.toDouble)), "count"),
      Metric("data_cells_per_query", mean(rs.map(_.zidian.valuesAccessed.toDouble)), "count"),
      Metric("comm_mb_per_query", mean(rs.map(_.zidian.commMB)), "MB"),
      Metric("store_mb", storeMb, "MB"),
    )
    val notes = Seq(
      f"zidian_tail_ms is p$pct%.1f of n=$n Zidian reads (${rs.groupBy(_.template).size} templates)",
      f"error_rate ${runner.failed.toDouble / runner.attempted}%.4f (${runner.failed} of ${runner.attempted} operations failed)",
    )
    (metrics, notes ++ perTemplate(rs))
  }

  /** Per-template medians and job counts, in the mix's order. */
  private def perTemplate(rs: Seq[ReadRec]): Seq[String] =
    rs.map(_.template).distinct.map { t =>
      val g = rs.filter(_.template == t)
      val z = jobs.sum(g.map(_.op), "zx", "zc").jobs
      f"  $t%-10s n=${g.size}%-3d zidian_p50_ms=${median(g.map(_.zidianMs))}%9.1f " +
        f"baseline_p50_ms=${median(g.map(_.baselineMs))}%8.1f jobs/query=${z.toDouble / g.size}%5.1f"
    }

  private def perLayer: (Seq[Metric], Seq[String]) = {
    val rs = tracedReads
    val ops = rs.map(_.op).toSet
    val spans = Trace.recorded.filter(s => ops(s.op))
    val spanMs = spans.groupMapReduce(_.name)(_.ns / 1e6)(_ + _)
    def msPerRead(name: String) = spanMs.getOrElse(name, 0.0) / rs.size
    val zx = jobs.sum(ops, "zx")
    val zc = jobs.sum(ops, "zc")
    val b = jobs.sum(ops, "b")
    val self = Trace.selfNsByLayer(spans)
    val modeled = rs.map(r => Sut.modeledSeconds(r.zidian).toMap)
    val untracedP50 = p50(untraced, _.zidianMs)
    val metrics = Seq(
      Metric("planner.decide_ms", msPerRead("planner.decide"), "ms"),
      Metric("planner.minimize_ms", msPerRead("planner.minimize"), "ms"),
      Metric("planner.scanfree_check_ms", msPerRead("planner.scanfree_check"), "ms"),
      Metric("planner.preserve_ms", msPerRead("planner.preserve"), "ms"),
      Metric("planner.plangen_ms", msPerRead("planner.plangen"), "ms"),
      Metric("planner.extend_steps", mean(rs.map(r => count(r.plan.body) { case _: KExtend => 1 })), "count"),
      Metric("planner.kv_scan_nodes", mean(rs.map(r => count(r.plan.body) { case _: KScanKV => 1 })), "count"),
      Metric("planner.taav_scan_nodes", mean(rs.map(r => count(r.plan.body) { case _: KScanRel => 1 })), "count"),
      Metric("executor.run_ms", msPerRead("executor.run"), "ms"),
      Metric("executor.run_jobs", zx.jobs.toDouble / rs.size, "count"),
      Metric("executor.leaked_frames", mean(rs.map(_.leaked.toDouble)), "count"),
      Metric("dataflow.collect_ms", msPerRead("dataflow.collect"), "ms"),
      Metric("dataflow.collect_jobs", zc.jobs.toDouble / rs.size, "count"),
      Metric("dataflow.stages", zc.stages.toDouble / rs.size, "count"),
      Metric("dataflow.tasks", zc.tasks.toDouble / rs.size, "count"),
      Metric("dataflow.shuffle_write_mb", zc.shuffleWriteBytes / 1e6 / rs.size, "MB"),
      Metric("dataflow.rows_out", mean(rs.map(_.rows.toDouble)), "count"),
      Metric("jvm.gc_ms_per_query", mean(rs.map(_.gcMs)), "ms"),
      Metric("data.gen_s", median(reps.map(_.gen)), "s"),
      Metric("kv.taav_build_s", median(reps.map(_.taav)), "s"),
      Metric("kv.baav_build_s", median(reps.map(_.baav)), "s"),
      Metric("kv.degree_s", median(reps.map(_.degree)), "s"),
      Metric("kv.baav_cells", cells.toDouble, "count"),
      Metric("kv.baav_blocks", blocks.toDouble, "count"),
      Metric("kv.kv_scans_per_query", mean(rs.map(_.zidian.kvScans.toDouble)), "count"),
      Metric("kv.taav_scans_per_query", mean(rs.map(_.zidian.taavScans.toDouble)), "count"),
      Metric("kv.data_vs_baseline",
        rs.map(_.zidian.valuesAccessed).sum.toDouble / rs.map(_.baseline.valuesAccessed).sum, "ratio"),
    ) ++ Seq("SoH", "SoK", "SoC").map(b => Metric(s"kv.modeled_s.$b", mean(modeled.map(_(b))), "s")) ++ Seq(
      Metric("baseline.collect_ms", msPerRead("baseline.collect"), "ms"),
      Metric("baseline.jobs", b.jobs.toDouble / rs.size, "count"),
      Metric("baseline.gets", mean(rs.map(_.baseline.gets.toDouble)), "count"),
      Metric("baseline.data_cells", mean(rs.map(_.baseline.valuesAccessed.toDouble)), "count"),
    ) ++ Seq("planner", "executor", "dataflow", "baseline", "bench").map { l =>
      Metric(s"self_ms.$l", self.getOrElse(l, 0L) / 1e6 / rs.size, "ms")
    } ++ Seq(
      Metric("trace.overhead_ms", p50(rs, _.zidianMs) - untracedP50, "ms"),
    )
    (metrics, split(rs, spans))
  }

  /** The expected split of Zidian latency between its layers, checked. */
  private def split(rs: Seq[ReadRec], spans: Seq[Span]): Seq[String] = {
    val scans = w.name == "analytic"
    val sel = if (scans) rs.filter(r => count(r.plan.body) { case _: KExtend => 1 } == 0) else rs
    val ops = sel.map(_.op).toSet
    val total = sel.map(_.zidianMs).sum
    val share = Seq("planner.decide", "executor.run", "dataflow.collect").map { n =>
      n -> spans.filter(s => ops(s.op) && s.name == n).map(_.ns / 1e6).sum / total
    }.toMap
    val top = share.maxBy(_._2)._1
    val expect = if (scans) "dataflow.collect" else "executor.run"
    val holds = top == expect
    val shares = share.toSeq.sortBy(-_._2).map { case (n, s) => f"$n ${100 * s}%.1f%%" }.mkString(", ")
    Seq(s"split over ${sel.size} traced reads${if (scans) " (scan templates)" else ""}: $shares",
        s"expected: $expect dominates -> ${if (holds) "holds" else "MISMATCH"}")
  }

  def output: Output = {
    val (metrics, notes) = if (traced) perLayer else endToEnd
    val correct = runner.failed == 0 && metrics.forall(m => !m.value.isNaN && !m.value.isInfinite)
    val lines = Seq(s"workload ${w.name} (${w.ds.name} SF ${w.sf}): ${w.why}") ++
      metrics.map(m => f"${m.name}%-28s ${m.value}%16.4f ${m.unit}") ++ notes
    val body = metrics.map { m =>
      val v = if (m.value.isNaN || m.value.isInfinite) 0.0 else m.value
      s""""${m.name}": {"value": ${java.lang.Double.toString(v)}, "unit": "${m.unit}"}"""
    }.mkString(", ")
    Output(lines, s"""{"correct": $correct, "attempted": ${runner.attempted}, """ +
      s""""failed": ${runner.failed}, "metrics": {$body}}""")
  }
}

object Report {
  final case class Metric(name: String, value: Double, unit: String)

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted
      val n = s.size
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) Double.NaN else xs.sum / xs.size

  /** The highest percentile with at least ten samples beyond it: the 11th
    * largest value; with fewer than 11 samples, the largest.
    */
  def tailOf(xs: Seq[Double]): (Double, Double, Int) = {
    val n = xs.size
    if (n == 0) (Double.NaN, Double.NaN, 0)
    else {
      val s = xs.sorted
      val i = math.max(0, n - 11)
      (s(if (n >= 11) i else n - 1), 100.0 * (if (n >= 11) n - 10 else n) / n, n)
    }
  }

  def count(p: KPlan)(f: PartialFunction[KPlan, Int]): Double = {
    val here = f.applyOrElse(p, (_: KPlan) => 0)
    here + (p match {
      case KExtend(in, _, _, _) => count(in)(f)
      case KJoin(l, r, _)       => count(l)(f) + count(r)(f)
      case _                    => 0.0
    })
  }
}
