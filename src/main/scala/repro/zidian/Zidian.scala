package repro.zidian

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.model.{BaaVSchema, Catalog}
import repro.core.planner.{Executor, PlanGen, ZPlan}
import repro.core.preserve.Preservation
import repro.core.query.Query
import repro.core.scanfree.ScanFree
import repro.kv.{BaaVStore, KVMetrics, TaaVStore}

/** What Zidian decided about a query (modules M1/M2, §5.1–§6). */
final case class Decision(
    resultPreserving: Boolean,
    scanFree: Boolean,
    bounded: Option[Boolean],
)

/** The evaluated answer plus the plan and storage-access metrics. */
final case class ZidianAnswer(
    df: DataFrame,
    metrics: KVMetrics,
    plan: ZPlan,
    decision: Decision,
    executor: Executor,
)

/** The Zidian middleware facade (§5.1): given an SQL (RA_aggr) query on the
  * relational schema, check preservability (M1), decide scan-freeness /
  * boundedness and generate a KBA plan (M2), and execute it interleaved
  * over the BaaV store (M3), falling back to TaaV scans per alias where
  * the BaaV schema does not cover the query.
  */
final class Zidian(val cat: Catalog, val schema: BaaVSchema, val boundedDegree: Long) {

  /** M1/M2 static decisions (no store access beyond degrees). */
  def decide(q: Query, store: Option[BaaVStore]): (Decision, ZPlan) = {
    val report = ScanFree.check(q, schema, cat)
    val rp = Preservation.isResultPreserving(q, schema, cat)
    val plan = PlanGen.planFrom(report, schema, cat)
    val bounded = store.map { s =>
      plan.scanFree && plan.usedInstances.forall(n => s(n).degree <= boundedDegree)
    }
    (Decision(rp, plan.scanFree, bounded), plan)
  }

  /** Plan and execute `q` over the stores. Storage-access metrics are
    * recorded while the plan is interpreted; the returned DataFrame is the
    * (lazily materialized) answer.
    */
  def answer(q: Query, baav: BaaVStore, taav: TaaVStore, spark: SparkSession): ZidianAnswer = {
    val (decision, plan) = decide(q, Some(baav))
    val exec = new Executor(spark, cat, baav, taav)
    val df = exec.run(plan)
    ZidianAnswer(df, exec.metrics, plan, decision, exec)
  }
}
