package repro.bench

import repro.SparkSpec
import repro.benchutil.Harness
import repro.data.Workloads
import repro.kv.{Backend, KVMetrics}

/** Exp-4 (text-only in the paper, no table): throughput (Tpms — values
  * processed per ms across workers) and horizontal scalability for bulk
  * KV workloads under TaaV vs BaaV.
  *
  * Read: fetching all tuples of N vehicles' tests costs one get per tuple
  * under TaaV but one get per keyed block under BaaV. Write: a BaaV put
  * rewrites the whole block, so write throughput dips but stays comparable
  * (paper: 67–90% of TaaV).
  */
class KvWorkloadBench extends SparkSpec {
  private val NKeys = 2000
  private lazy val env = Harness.buildEnv(Workloads.mot, spark, 0.05)
  private lazy val deg = env.baav("test_by_vid").degree
  private val arity = 5 // key + 4 value attrs of test_by_vid

  private def tpms(m: KVMetrics, workers: Int): Double =
    m.valuesAccessed / (Backend.SoH.storageSeconds(m, workers) * 1000.0)

  /** Write throughput counts *inserted* values per ms; the BaaV penalty is
    * the block read-modify-write reflected in the cost, not the payload.
    */
  private def tpmsWrite(m: KVMetrics, inserted: Long, workers: Int): Double =
    inserted / (Backend.SoH.storageSeconds(m, workers) * 1000.0)

  private def readTaaV = KVMetrics(gets = NKeys * deg, valuesAccessed = NKeys * deg * arity)
  private def readBaaV = KVMetrics(gets = NKeys, valuesAccessed = NKeys * deg * arity)
  private def writeTaaV = KVMetrics(gets = NKeys, valuesAccessed = NKeys * arity)
  // Read-modify-write of the target block: deg tuples touched per put.
  private def writeBaaV = KVMetrics(gets = NKeys, valuesAccessed = NKeys * deg * arity)

  test("Exp-4: print read/write throughput TaaV vs BaaV") {
    println()
    println("Exp-4 -- simulated KV workload throughput (Tpms, SoH cost model, 8 workers)")
    val ins = NKeys.toLong * arity
    println(f"  read : TaaV ${tpms(readTaaV, 8)}%10.1f   BaaV ${tpms(readBaaV, 8)}%10.1f")
    println(f"  write: TaaV ${tpmsWrite(writeTaaV, ins, 8)}%10.1f  BaaV ${tpmsWrite(writeBaaV, ins, 8)}%10.1f")
    println(f"  (block degree = $deg)")
  }

  test("Exp-4 shape: BaaV improves read throughput (paper: 1.1-1.5x)") {
    assert(tpms(readBaaV, 8) > tpms(readTaaV, 8))
  }

  test("Exp-4 shape: BaaV write throughput is lower but comparable (paper: 67-90%)") {
    val ins = NKeys.toLong * arity
    val ratio = tpmsWrite(writeBaaV, ins, 8) / tpmsWrite(writeTaaV, ins, 8)
    assert(ratio < 1.0 && ratio > 0.5, f"write ratio $ratio%.2f")
  }

  test("Exp-4 shape: throughput scales horizontally with workers") {
    val t = Seq(4, 8, 12).map(p => tpms(readBaaV, p))
    assert(t(0) < t(1) && t(1) < t(2))
    // Linear: doubling workers doubles Tpms under the cost model.
    assert(math.abs(t(1) / t(0) - 2.0) < 1e-6)
  }

  test("Exp-4: the store really has the assumed stable degree") {
    assert(deg == 3)
  }
}
