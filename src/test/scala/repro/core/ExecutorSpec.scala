package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.types.{LongType, StringType}
import repro.{SparkSpec, TestSchemas}
import repro.TestSchemas._
import repro.core.model._
import repro.core.planner._
import repro.core.query._
import repro.kv.{BaaVStore, KVInstance, KVMetrics, TaaVStore}

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
  private lazy val baav = BaaVStore.build(r1, data)
  private lazy val taav = TaaVStore.build(cat, data)

  private def cachedFrames: Int = s.sparkContext.getPersistentRDDs.size

  /** Loan an executor over `store`, release it, and check that Spark holds
    * as many cached frames as before.
    */
  private def withExecutor[A](store: BaaVStore = baav, kat: Catalog = cat)(f: Executor => A): A = {
    val exec = new Executor(s, kat, store, taav)
    val before = cachedFrames
    val out = try f(exec) finally exec.cleanup()
    assert(cachedFrames == before, "the executor left cached frames")
    out
  }

  private def runPlan[A](zp: ZPlan, store: BaaVStore = baav)(f: (DataFrame, Executor) => A): A =
    withExecutor(store)(exec => f(exec.run(zp), exec))

  private def metricsOf(zp: ZPlan, store: BaaVStore = baav): KVMetrics =
    runPlan(zp, store)((_, exec) => exec.metrics)

  private def grouped(df: DataFrame): Map[Long, Double] =
    df.collect().map(r => (r.getLong(0), r.getDecimal(1).doubleValue)).toMap

  test("the Q1 chain plan computes the correct grouped answer") {
    runPlan(PlanGen.plan(q1, r1, cat))((df, _) => assert(grouped(df) == Map(10L -> 12.0, 30L -> 12.0)))
  }

  test("scan-free plans perform no scans (Proposition 7a)") {
    assert(metricsOf(PlanGen.plan(q1, r1, cat)).scans == 0)
  }

  test("extension gets are counted per requested distinct key") {
    // 1 get for 'GERMANY', 1 for nationkey 1, 2 for suppkeys {10, 30}.
    assert(metricsOf(PlanGen.plan(q1, r1, cat)).gets == 4)
  }

  test("extension values count only the fetched blocks") {
    // ~NATION: 1 block (1 key cell + 1 tuple x 1 value cell) = 2
    // ~SUPPLIER: block of nationkey 1: 1 + 2x1 = 3
    // ~PARTSUPP: blocks of 10 and 30: 2 + (2+3)x3 = 17
    assert(metricsOf(PlanGen.plan(q1, r1, cat)).valuesAccessed == 2 + 3 + 17)
    // FRANCE's supplier 20 and its partsupp block were never touched.
  }

  test("communication = keys shipped + blocks fetched") {
    // keys shipped: 1 + 1 + 2 = 4 cells; fetched = 22 cells (above).
    assert(metricsOf(PlanGen.plan(q1, r1, cat)).commCells == 4 + 22)
  }

  test("a plan holds one cached frame per extension until cleanup") {
    withExecutor() { exec =>
      val before = cachedFrames
      exec.run(PlanGen.plan(q1, r1, cat))
      assert(cachedFrames == before + 3) // Q1 is a chain of three extensions
    }
  }

  test("an extension gets a NULL key and a missing key once each and fetches nothing") {
    import s.implicits._
    val kvS = KVSchema("~S", "SUPPLIER", Seq("suppkey"), Seq("nationkey"))
    val kvN = KVSchema("~N", "NATION", Seq("nationkey"), Seq("name"))
    val sup = Seq((40L, Option.empty[Int]), (50L, Some(9))).toDF("suppkey", "nationkey")
    val store = new BaaVStore(BaaVSchema(Seq(kvS, kvN)), Map(
      kvS.name -> KVInstance.fromRelation(sup, kvS),
      kvN.name -> KVInstance.fromRelation(data("NATION"), kvN)))
    val scan = KScanKV("S", kvS)
    val ext = KExtend(scan, "N", kvN, Seq("nationkey" -> FromAttr(Attr("S", "nationkey"))))
    val q = Query("nulls", Seq(RelAtom("SUPPLIER", "S"), RelAtom("NATION", "N")), Nil, Nil)
    withExecutor(store) { exec =>
      exec.frame(scan, q)
      val m0 = exec.metrics
      assert(exec.frame(ext, q).count() == 0)
      val m = exec.metrics
      assert(m.gets - m0.gets == 2)
      assert(m.valuesAccessed == m0.valuesAccessed)
      assert(m.commCells - m0.commCells == 2) // the two key cells shipped
    }
  }

  test("an extension over split blocks gets each key once and reads every segment") {
    val split = new BaaVStore(r1, Map(
      kvNation.name   -> KVInstance.fromRelation(data("NATION"), kvNation),
      kvSupplier.name -> KVInstance.fromRelation(data("SUPPLIER"), kvSupplier),
      kvPartsupp.name -> KVInstance.fromRelation(data("PARTSUPP"), kvPartsupp, Some(2))))
    runPlan(PlanGen.plan(q1, r1, cat), split) { (df, exec) =>
      assert(grouped(df) == Map(10L -> 12.0, 30L -> 12.0))
      assert(exec.metrics.gets == 4)
      // ~PARTSUPP: key 10 is 1 segment of 2 tuples, key 30 is 2 segments
      // of 2 + 1 tuples: 3 key cells + 5x3 value cells = 18.
      assert(exec.metrics.valuesAccessed == 2 + 3 + 18)
    }
  }

  test("a KV-instance scan counts one get per block and all cells") {
    val q = Query("scan", Seq(RelAtom("PARTSUPP", "PS")), Nil,
      Seq(Attr("PS", "suppkey") -> "sk"),
      Some(Seq(Attr("PS", "suppkey"))),
      Seq(Agg("sum", Some(Attr("PS", "supplycost")), "tot")))
    runPlan(PlanGen.plan(q, r1, cat)) { (df, exec) =>
      assert(df.count() == 3)
      assert(exec.metrics.kvScans == 1)
      assert(exec.metrics.gets == 3)           // 3 keyed blocks
      assert(exec.metrics.valuesAccessed == 3 + 6 * 3)
    }
  }

  test("a TaaV fallback scan counts one get per tuple") {
    val q = Query("taav", Seq(RelAtom("NATION", "N")), Nil,
      Seq(Attr("N", "name") -> "name"), distinct = true)
    runPlan(PlanGen.plan(q, BaaVSchema(Nil), cat)) { (df, exec) =>
      assert(df.count() == 2)
      assert(exec.metrics.taavScans == 1)
      assert(exec.metrics.gets == 2)
    }
  }

  test("clo-reconstruction produces the same answer as direct SQL") {
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
    val store2 = BaaVStore.build(sch, data)
    try runPlan(zp, store2)((df, _) => assert(grouped(df) == Map(20L -> 9.0, 30L -> 12.0)))
    finally store2.unpersist()
  }

  test("a residual predicate that cannot filter at fetch time still applies") {
    val q = q1Prime.copy(preds = q1Prime.preds :+ CmpConst(Attr("PS", "supplycost"), ">", "5"))
    import s.implicits._
    runPlan(PlanGen.plan(q, r1, cat)) { (df, exec) =>
      assert(df.as[(Long, Double)].collect().toSet == Set((10L, 7.0), (30L, 6.0)))
      assert(exec.metrics.scans == 0)
    }
  }

  test("a frontier key missing from the store just drops those tuples") {
    val q = q1.copy(preds = q1.preds.map {
      case EqConst(at, _) => EqConst(at, "ATLANTIS")
      case p              => p
    })
    runPlan(PlanGen.plan(q, r1, cat)) { (df, exec) =>
      assert(df.count() == 0)
      assert(exec.metrics.gets == 1) // only the ATLANTIS lookup
    }
  }

  test("frames are memoized per query, not per query name") {
    // X.suppkey is a LONG in SUPPLIER and a STRING in SUPPLIER_CODE.
    val kat = Catalog(cat.relations :+
      RelSchema("SUPPLIER_CODE", Seq("suppkey" -> ColType.StringT), pk = Seq("suppkey")))
    val bind = KConst(Seq(Attr("X", "suppkey") -> "10"))
    def q(rel: String) = Query("same", Seq(RelAtom(rel, "X")), Nil, Seq(Attr("X", "suppkey") -> "k"))
    withExecutor(kat = kat) { exec =>
      def typeOf(rel: String) = exec.frame(bind, q(rel)).schema("X__suppkey").dataType
      assert(typeOf("SUPPLIER") == LongType)
      assert(typeOf("SUPPLIER_CODE") == StringType)
    }
  }

  test("shared chase prefixes execute once (memoization)") {
    runPlan(PlanGen.plan(q1, r1, cat)) { (_, exec) =>
      val before = exec.metrics.gets
      // Re-running the same plan through the same executor reuses every frame.
      exec.run(PlanGen.plan(q1, r1, cat))
      assert(exec.metrics.gets == before)
    }
  }
}
