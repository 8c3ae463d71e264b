package repro.bench

import repro.SparkSpec
import repro.benchutil.Harness
import repro.data.Workloads
import repro.kv.Backend

/** Exp-2 / Exp-3 (text + Figures 3–4, figures themselves out of scope):
  * bounded queries are answered with a constant amount of data and
  * communication as |D| grows, while the baseline grows linearly.
  */
class BoundedScalingBench extends SparkSpec {
  private val Sfs = Seq(0.02, 0.04, 0.08)

  private lazy val runs = Sfs.map { sf =>
    val env = Harness.buildEnv(Workloads.mot, spark, sf)
    try {
      val bounded = Workloads.mot.queries.find(_.q.name == "mot_q3").get
      val unbounded = Workloads.mot.queries.find(_.q.name == "mot_q7").get
      (sf, Harness.runBoth(env, bounded), Harness.runBoth(env, unbounded))
    } finally env.close()
  }

  test("Exp-2: print bounded-query scaling") {
    println()
    println("Exp-2 -- bounded query (mot_q3) and full-scan query (mot_q7) vs |D|")
    println(f"${"SF"}%6s ${"bounded #data Z"}%16s ${"bounded comm Z"}%15s " +
            f"${"bounded #data base"}%19s ${"scan #data Z"}%13s")
    for ((sf, (bb, bz), (_, uz)) <- runs) {
      println(f"$sf%6.2f ${bz.metrics.valuesAccessed}%16d ${bz.metrics.commMB}%15.4f " +
              f"${bb.metrics.valuesAccessed}%19d ${uz.metrics.valuesAccessed}%13d")
    }
  }

  test("Exp-2 shape: bounded-query #data is flat in |D| (paper: 0.7s at 1GB and 16GB)") {
    val vals = runs.map { case (_, (_, z), _) => z.metrics.valuesAccessed }
    assert(vals.distinct.size == 1, s"bounded #data not flat: $vals")
    val gets = runs.map { case (_, (_, z), _) => z.metrics.gets }
    assert(gets.distinct.size == 1, s"bounded #get not flat: $gets")
  }

  test("Exp-2 shape: the baseline for the same query grows linearly") {
    val vals = runs.map { case (_, (b, _), _) => b.metrics.valuesAccessed }
    assert(vals(1) > vals(0) * 1.5 && vals(2) > vals(1) * 1.5, s"baseline not growing: $vals")
  }

  test("Exp-2 shape: non-scan-free Zidian #data grows with |D|") {
    val vals = runs.map { case (_, _, (z, _)) => z.metrics.valuesAccessed }
    assert(vals(2) > vals(0), s"scan query #data should grow: $vals")
  }

  test("Exp-2 shape: bounded-query simulated time is indifferent to |D|") {
    val ts = runs.map { case (_, (_, z), _) => Backend.SoH.storageSeconds(z.metrics, 8) }
    assert(ts.max - ts.min < 1e-6, s"bounded storage time not flat: $ts")
  }
}
