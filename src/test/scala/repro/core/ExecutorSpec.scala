package repro.core

import org.apache.spark.sql.types.{LongType, StringType}
import repro.{SparkSpec, TestSchemas}
import repro.TestSchemas._
import repro.core.model._
import repro.core.planner._
import repro.core.query._
import repro.kv.{BaaVStore, TaaVStore}

/** Interleaved execution semantics and metric accounting (§7.2, Prop. 7). */
class ExecutorSpec extends SparkSpec {
  private lazy val s = spark

  private lazy val data = {
    import s.implicits._
    Map(
      "NATION"   -> Seq((1, "GERMANY"), (2, "FRANCE")).toDF("nationkey", "name"),
      "SUPPLIER" -> Seq((10L, 1), (20L, 2), (30L, 1)).toDF("suppkey", "nationkey"),
      "PARTSUPP" -> Seq(
        (100L, 10L, 5.0, 1), (101L, 10L, 7.0, 2),
        (102L, 20L, 9.0, 3),
        (103L, 30L, 2.0, 4), (104L, 30L, 4.0, 5), (105L, 30L, 6.0, 6),
      ).toDF("partkey", "suppkey", "supplycost", "availqty"),
    )
  }
  private lazy val baav = BaaVStore.build(r1, data, materialize = false)
  private lazy val taav = TaaVStore.build(cat, data)

  private def runPlan(zp: ZPlan): (org.apache.spark.sql.DataFrame, Executor) = {
    val exec = new Executor(s, cat, baav, taav)
    (exec.run(zp), exec)
  }

  test("the Q1 chain plan computes the correct grouped answer") {
    val (df, _) = runPlan(PlanGen.plan(q1, r1, cat))
    val got = df.collect().map(r => (r.getLong(0), r.getDecimal(1).doubleValue)).toMap
    assert(got == Map(10L -> 12.0, 30L -> 12.0))
  }

  test("scan-free plans perform no scans (Proposition 7a)") {
    val (_, exec) = runPlan(PlanGen.plan(q1, r1, cat))
    assert(exec.metrics.scans == 0)
  }

  test("extension gets are counted per requested distinct key") {
    val (_, exec) = runPlan(PlanGen.plan(q1, r1, cat))
    // 1 get for 'GERMANY', 1 for nationkey 1, 2 for suppkeys {10, 30}.
    assert(exec.metrics.gets == 4)
  }

  test("extension values count only the fetched blocks") {
    val (_, exec) = runPlan(PlanGen.plan(q1, r1, cat))
    // ~NATION: 1 block (1 key cell + 1 tuple x 1 value cell) = 2
    // ~SUPPLIER: block of nationkey 1: 1 + 2x1 = 3
    // ~PARTSUPP: blocks of 10 and 30: 2 + (2+3)x3 = 17
    assert(exec.metrics.valuesAccessed == 2 + 3 + 17)
    // FRANCE's supplier 20 and its partsupp block were never touched.
  }

  test("communication = keys shipped + blocks fetched") {
    val (_, exec) = runPlan(PlanGen.plan(q1, r1, cat))
    // keys shipped: 1 + 1 + 2 = 4 cells; fetched = 22 cells (above).
    assert(exec.metrics.commCells == 4 + 22)
  }

  test("a KV-instance scan counts one get per block and all cells") {
    val q = Query("scan", Seq(RelAtom("PARTSUPP", "PS")), Nil,
      Seq(Attr("PS", "suppkey") -> "sk"),
      Some(Seq(Attr("PS", "suppkey"))),
      Seq(Agg("sum", Some(Attr("PS", "supplycost")), "tot")))
    val (df, exec) = runPlan(PlanGen.plan(q, r1, cat))
    assert(df.count() == 3)
    assert(exec.metrics.kvScans == 1)
    assert(exec.metrics.gets == 3)           // 3 keyed blocks
    assert(exec.metrics.valuesAccessed == 3 + 6 * 3)
  }

  test("a TaaV fallback scan counts one get per tuple") {
    val q = Query("taav", Seq(RelAtom("NATION", "N")), Nil,
      Seq(Attr("N", "name") -> "name"), distinct = true)
    val (df, exec) = runPlan(PlanGen.plan(q, BaaVSchema(Nil), cat))
    assert(df.count() == 2)
    assert(exec.metrics.taavScans == 1)
    assert(exec.metrics.gets == 2)
  }

  test("clo-reconstruction produces the same answer as direct SQL") {
    import s.implicits._
    val ps1 = KVSchema("ps_a", "PARTSUPP", Seq("suppkey"), Seq("partkey", "availqty"))
    val ps2 = KVSchema("ps_b", "PARTSUPP", Seq("partkey", "suppkey"), Seq("supplycost"))
    val sch = BaaVSchema(Seq(ps1, ps2))
    val q = Query("recon", Seq(RelAtom("PARTSUPP", "PS")),
      Seq(CmpConst(Attr("PS", "availqty"), ">", "2")),
      Seq(Attr("PS", "suppkey") -> "sk"),
      Some(Seq(Attr("PS", "suppkey"))),
      Seq(Agg("sum", Some(Attr("PS", "supplycost")), "tot")))
    val zp = PlanGen.plan(q, sch, cat)
    assert(zp.aliasModes("PS") == AliasMode.KVScanExtend)
    val store2 = BaaVStore.build(sch, data, materialize = false)
    val exec = new Executor(s, cat, store2, taav)
    val got = exec.run(zp).collect()
      .map(r => (r.getLong(0), r.getDecimal(1).doubleValue)).toMap
    assert(got == Map(20L -> 9.0, 30L -> 12.0))
  }

  test("a residual predicate that cannot filter at fetch time still applies") {
    val q = q1Prime.copy(preds = q1Prime.preds :+ CmpConst(Attr("PS", "supplycost"), ">", "5"))
    val (df, exec) = runPlan(PlanGen.plan(q, r1, cat))
    import s.implicits._
    val got = df.as[(Long, Double)].collect().toSet
    assert(got == Set((10L, 7.0), (30L, 6.0)))
    assert(exec.metrics.scans == 0)
  }

  test("a frontier key missing from the store just drops those tuples") {
    val q = q1.copy(preds = q1.preds.map {
      case EqConst(at, _) => EqConst(at, "ATLANTIS")
      case p              => p
    })
    val (df, exec) = runPlan(PlanGen.plan(q, r1, cat))
    assert(df.count() == 0)
    assert(exec.metrics.gets == 1) // only the ATLANTIS lookup
  }

  test("frames are memoized per query, not per query name") {
    // X.suppkey is a LONG in SUPPLIER and a STRING in SUPPLIER_CODE.
    val kat = Catalog(cat.relations :+
      RelSchema("SUPPLIER_CODE", Seq("suppkey" -> ColType.StringT), pk = Seq("suppkey")))
    val exec = new Executor(s, kat, baav, taav)
    val bind = KConst(Seq(Attr("X", "suppkey") -> "10"))
    def q(rel: String) = Query("same", Seq(RelAtom(rel, "X")), Nil, Seq(Attr("X", "suppkey") -> "k"))
    def typeOf(rel: String) = exec.frame(bind, q(rel)).schema("X__suppkey").dataType
    assert(typeOf("SUPPLIER") == LongType)
    assert(typeOf("SUPPLIER_CODE") == StringType)
  }

  test("shared chase prefixes execute once (memoization)") {
    val (_, exec) = runPlan(PlanGen.plan(q1, r1, cat))
    val before = exec.metrics.gets
    // Re-running the same plan through the same executor reuses every frame.
    exec.run(PlanGen.plan(q1, r1, cat))
    assert(exec.metrics.gets == before)
  }
}
