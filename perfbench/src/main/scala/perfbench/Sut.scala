package perfbench

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.StructType
import repro.baseline.SqlOverNoSql
import repro.benchutil.{Env, Harness}
import repro.core.planner.{Executor, PlanGen, ZPlan}
import repro.core.preserve.Preservation
import repro.core.query.{Minimize, Query}
import repro.core.scanfree.ScanFree
import repro.data.Dataset
import repro.kv.{BaaVStore, Backend, KVMetrics, TaaVStore}
import repro.zidian.{Decision, Zidian, ZidianAnswer}
import scala.jdk.CollectionConverters._

/** Every call the benchmark makes into the program under test, each inside
  * a span named `<layer>.<call>`.
  */
object Sut {

  // ------------------------------------------------------------ set-up

  def generate(ds: Dataset, spark: SparkSession, sf: Double): Map[String, DataFrame] =
    Trace.span("data.gen")(ds.dataAt(spark, sf))

  def buildTaav(ds: Dataset, data: Map[String, DataFrame]): TaaVStore =
    Trace.span("kv.taav_build")(TaaVStore.build(ds.catalog, data))

  def buildBaav(ds: Dataset, data: Map[String, DataFrame]): BaaVStore =
    Trace.span("kv.baav_build")(BaaVStore.build(ds.baavSchema, data))

  /** Force the lazy degree of every instance (read by `Zidian.decide`). */
  def forceDegrees(baav: BaaVStore): Unit =
    Trace.span("kv.degree")(baav.instances.values.foreach(_.degree))

  /** Force the remaining lazy statistics; returns (cells, logical blocks). */
  def forceShape(taav: TaaVStore, baav: BaaVStore): (Long, Long) = Trace.span("kv.stats") {
    taav.rowCount
    (baav.instances.values.map(_.cells).sum, baav.instances.values.map(_.numBlocks).sum)
  }

  def env(ds: Dataset, spark: SparkSession, sf: Double, taav: TaaVStore, baav: BaaVStore): Env =
    new Env(ds, spark, sf, taav, baav,
      new Zidian(ds.catalog, ds.baavSchema, Harness.BoundedDegree),
      new SqlOverNoSql(ds.catalog, spark))

  def close(env: Env): Unit = env.close()

  // ------------------------------------------------------------- reads

  def answer(env: Env, q: Query): ZidianAnswer =
    Trace.span("zidian.answer")(env.zidian.answer(q, env.baav, env.taav, env.spark))

  def decide(env: Env, q: Query): (Decision, ZPlan) =
    Trace.span("planner.decide")(env.zidian.decide(q, Some(env.baav)))

  def executor(env: Env): Executor =
    new Executor(env.spark, env.ds.catalog, env.baav, env.taav)

  def run(exec: Executor, plan: ZPlan): DataFrame =
    Trace.span("executor.run")(exec.run(plan))

  def release(exec: Executor): Unit = exec.cleanup()

  def baseline(env: Env, q: Query): (DataFrame, KVMetrics) =
    Trace.span("baseline.answer")(env.baseline.answer(q, env.taav))

  /** Materialize a result; `layer` is `dataflow` for Zidian's frame. */
  def collect(layer: String, df: DataFrame): Array[Row] =
    Trace.span(s"$layer.collect")(df.collect())

  // ----------------------------------------------------------- planner

  def minimize(env: Env, q: Query): Minimize.MinResult =
    Trace.span("planner.minimize")(Minimize.minimize(q, env.ds.catalog))

  def scanFreeCheck(env: Env, q: Query): ScanFree.Report =
    Trace.span("planner.scanfree_check")(ScanFree.check(q, env.ds.baavSchema, env.ds.catalog))

  def preserve(env: Env, q: Query): Boolean =
    Trace.span("planner.preserve")(
      Preservation.isResultPreserving(q, env.ds.baavSchema, env.ds.catalog))

  def planFrom(env: Env, report: ScanFree.Report): ZPlan =
    Trace.span("planner.plangen")(PlanGen.planFrom(report, env.ds.baavSchema, env.ds.catalog))

  // --------------------------------------------------------- checking

  /** Canonical rows of collected result rows, by the repository's own
    * canonicalizer.
    */
  def canon(spark: SparkSession, rows: Array[Row], schema: StructType): Seq[String] =
    Harness.canon(spark.createDataFrame(rows.toSeq.asJava, schema))

  /** Modeled storage seconds per backend, from the same counters. */
  def modeledSeconds(m: KVMetrics): Seq[(String, Double)] =
    Backend.all.map(b => b.name -> b.storageSeconds(m, Backend.DefaultWorkers))
}
