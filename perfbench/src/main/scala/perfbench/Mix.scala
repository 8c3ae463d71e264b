package perfbench

import java.time.LocalDate
import repro.benchutil.Env
import repro.core.query.{CmpConst, EqConst, Query}
import scala.collection.mutable
import scala.util.Random

/** Seeded template instances. Constants are drawn from the active domains
  * of the generated data; the program sees only the resulting queries.
  */
object Mix {

  /** Constants keyed by (column, operator); `=` for an equality constant. */
  type Consts = Map[(String, String), String]

  /** Replace the constants of `t`; every key must name one of its predicates. */
  def instantiate(t: Query, c: Consts): Query = {
    val keys = t.preds.collect {
      case EqConst(a, _)      => (a.col, "=")
      case CmpConst(a, op, _) => (a.col, op)
    }.toSet
    require(c.keySet.subsetOf(keys), s"${t.name}: no predicate for ${c.keySet -- keys}")
    t.copy(preds = t.preds.map {
      case EqConst(a, v)      => EqConst(a, c.getOrElse((a.col, "="), v))
      case CmpConst(a, op, v) => CmpConst(a, op, c.getOrElse((a.col, op), v))
      case p                  => p
    })
  }

  /** Distinct values of generated columns, sorted so draws depend only on the seed. */
  final class Domain(env: Env) {
    private val memo = mutable.Map.empty[(String, String), IndexedSeq[String]]
    def apply(rel: String, column: String): IndexedSeq[String] =
      memo.getOrElseUpdate((rel, column),
        env.taav.relation(rel).select(column).distinct().orderBy(column)
          .collect().map(_.get(0).toString).toIndexedSeq)
  }

  private def pick(r: Random, xs: IndexedSeq[String]): String = xs(r.nextInt(xs.size))

  /** Seeded constant draws per template name. The domains are collected
    * up front, so instantiation runs no Spark job.
    */
  def draws(dataset: String, d: Domain): Map[String, Random => Consts] = dataset match {
    case "MOT" =>
      val v = d("vehicle", "v_id"); val t = d("test", "t_id")
      val res = d("test", "t_result"); val sev = d("item", "it_severity")
      val byV: Random => Consts = r => Map(("v_id", "=") -> pick(r, v))
      Map(
        "mot_q1" -> byV,
        "mot_q2" -> (r => Map(("t_id", "=") -> pick(r, t))),
        "mot_q3" -> byV,
        "mot_q4" -> (r => Map(("v_id", "=") -> pick(r, v), ("t_result", "=") -> pick(r, res))),
        "mot_q5" -> byV,
        "mot_q6" -> (r => Map(("t_id", "=") -> pick(r, t), ("it_severity", "=") -> pick(r, sev))))
    case "TPC-H" =>
      // Dates, discounts and quantities follow the TPC-H substitution
      // windows (qgen), placed in the generated date domains, so one seed's
      // selectivities match another's.
      val nation = d("nation", "n_name"); val seg = d("customer", "c_mktsegment")
      val flag = d("lineitem", "l_returnflag")
      val lastShip = LocalDate.parse(d("lineitem", "l_shipdate").last)
      val firstOrder = LocalDate.parse(d("orders", "o_orderdate").head)
      Map(
        "tq11" -> (r => Map(("n_name", "=") -> pick(r, nation))),
        "tq3" -> (r => Map(("c_mktsegment", "=") -> pick(r, seg),
                           ("o_orderdate", "<") -> firstOrder.plusYears(3).plusMonths(2)
                             .plusDays(r.nextInt(31).toLong).toString)),
        "tq2" -> (r => Map(("n_name", "=") -> pick(r, nation))),
        "tq10" -> (r => Map(("c_mktsegment", "=") -> pick(r, seg),
                            ("l_returnflag", "=") -> pick(r, flag))),
        "tq1" -> (r => Map(("l_shipdate", "<=") -> lastShip.minusDays(60L + r.nextInt(61)).toString)),
        "tq6" -> { r =>
          val y = firstOrder.getYear + 1 + r.nextInt(5)
          val disc = 2 + r.nextInt(8)
          Map(("l_shipdate", ">=") -> s"$y-01-01", ("l_shipdate", "<") -> s"${y + 1}-01-01",
              ("l_discount", ">=") -> f"${(disc - 1) / 100.0}%.2f",
              ("l_discount", "<=") -> f"${(disc + 1) / 100.0}%.2f",
              ("l_quantity", "<") -> (24 + r.nextInt(2)).toString)
        },
        "tq4" -> { r =>
          val start = firstOrder.plusYears(1).withDayOfMonth(1).plusMonths(r.nextInt(58).toLong)
          Map(("o_orderdate", ">=") -> start.toString, ("o_orderdate", "<") -> start.plusMonths(3).toString)
        },
        "tq18" -> (_ => Map.empty))
  }
}
