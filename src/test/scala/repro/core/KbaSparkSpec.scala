package repro.core

import org.apache.spark.sql.{DataFrame, Row, functions => F}
import org.scalacheck.Gen
import repro.{Oracle, PropHelpers, SparkSpec}
import repro.core.algebra.RefKba
import repro.core.model._
import repro.core.planner._
import repro.core.query.{Query, RelAtom}
import repro.kv.{BaaVStore, KVInstance, TaaVStore}

/** The executor's Spark KBA operators (extension and join over KV-instance
  * scans) agree with the executable reference semantics on generated rows.
  */
class KbaSparkSpec extends SparkSpec with PropHelpers {
  private lazy val s = spark

  private val ab = Seq("A", "B")
  private val bc = Seq("B", "C")
  private val kvL = KVSchema("~L", "L", Seq("A"), Seq("B"))
  private val kvR = KVSchema("~R", "R", Seq("B"), Seq("C"))
  private val cat = Catalog(Seq(
    RelSchema("L", ab.map(_ -> ColType.StringT), pk = Nil),
    RelSchema("R", bc.map(_ -> ColType.StringT), pk = Nil)))
  // The plans below bind no constants, so the query only keys the memo.
  private val q = Query("kba", Seq(RelAtom("L", "L"), RelAtom("R", "R")), Nil, Nil)

  private def toDf(rows: Seq[Map[String, String]], cols: Seq[String]): DataFrame = {
    import s.implicits._
    rows.map(r => (r(cols(0)), r(cols(1)))).toDF(cols: _*)
  }

  private def inst(rows: Seq[Map[String, String]], kv: KVSchema): KVInstance =
    KVInstance.fromRelation(toDf(rows, kv.attrs), kv)

  /** Run `plan` over stores holding `l` as `~L⟨A,B⟩` and `r` as `~R⟨B,C⟩`,
    * and canonicalize its columns `L.A`, `L.B`, `R.C` as `A`, `B`, `C`.
    */
  private def execute(plan: KPlan, l: Seq[Map[String, String]],
                      r: Seq[Map[String, String]]): Seq[Seq[String]] = {
    val baav = new BaaVStore(BaaVSchema(Seq(kvL, kvR)),
                             Map(kvL.name -> inst(l, kvL), kvR.name -> inst(r, kvR)))
    val exec = new Executor(s, cat, baav, new TaaVStore(cat, Map.empty))
    val out = Seq(Attr("L", "A"), Attr("L", "B"), Attr("R", "C"))
    try Oracle.canon(exec.frame(plan, q).select(out.map(a => F.col(a.field).as(a.col)): _*))
    finally exec.cleanup()
  }

  private def canonRef(d: RefKba.Inst): Seq[Seq[String]] =
    Oracle.canon(d.flatten.map(row => Row.fromSeq(d.attrs.map(row))), d.attrs)

  private val smallVal: Gen[String] = Gen.chooseNum(1, 3).map(_.toString)
  private def rowsGen(cols: Seq[String]): Gen[Seq[Map[String, String]]] =
    for {
      k  <- Gen.chooseNum(0, 8)
      rs <- Gen.listOfN(k, Gen.listOfN(cols.size, smallVal).map(vs => cols.zip(vs).toMap))
    } yield rs

  test("Spark extension matches the reference semantics") {
    val plan = KExtend(KScanKV("L", kvL), "R", kvR, Seq("B" -> FromAttr(Attr("L", "B"))))
    forAllN2(rowsGen(ab), rowsGen(bc), n = 4) { (l, r) =>
      val rf = RefKba.extend(RefKba.fromRows(l, Seq("A"), Seq("B")),
                             RefKba.fromRows(r, Seq("B"), Seq("C")))
      assert(execute(plan, l, r) == canonRef(rf))
    }
  }

  test("Spark join matches the reference semantics") {
    val plan = KJoin(KScanKV("L", kvL), KScanKV("R", kvR), Seq(Attr("L", "B") -> Attr("R", "B")))
    forAllN2(rowsGen(ab), rowsGen(bc), n = 4) { (l, r) =>
      val rf = RefKba.join(RefKba.fromRows(l, Seq("A"), Seq("B")),
                           RefKba.fromRows(r, Seq("B"), Seq("C")), Seq("B"))
      assert(execute(plan, l, r) == canonRef(rf))
    }
  }

  test("Spark degree matches the reference degree") {
    forAllN(rowsGen(ab), n = 4) { l =>
      assert(inst(l, kvL).degree == RefKba.fromRows(l, Seq("A"), Seq("B")).degree)
    }
  }
}
