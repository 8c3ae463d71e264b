package repro.kv

import org.scalatest.funsuite.AnyFunSuite

class MetricsSpec extends AnyFunSuite {

  private def metrics(gets: Long, values: Long): KVMetrics =
    KVMetrics(gets = gets, valuesAccessed = values)

  test("commMB assumes 8 bytes per cell") {
    assert(KVMetrics(commCells = 1_000_000).commMB == 8.0)
  }

  test("+ accumulates counters") {
    val sum = metrics(5, 10).copy(kvScans = 1) + metrics(2, 3)
    assert(sum.gets == 7 && sum.valuesAccessed == 13 && sum.kvScans == 1)
    assert(sum + KVMetrics.zero == sum)
  }

  test("storageSeconds divides across workers (parallel scalability, Thm 8)") {
    val m = metrics(1000, 10000)
    val t4 = Backend.SoH.storageSeconds(m, 4)
    val t8 = Backend.SoH.storageSeconds(m, 8)
    assert(math.abs(t4 / t8 - 2.0) < 1e-9)
  }

  test("backend ordering matches the paper: SoK < SoC < SoH") {
    val m = metrics(100000, 1000000)
    val t = Backend.all.map(b => b.name -> b.storageSeconds(m, 8)).toMap
    assert(t("SoK") < t("SoC") && t("SoC") < t("SoH"))
  }

  test("storageSeconds is linear in gets and values") {
    val b = Backend.SoC
    val t1 = b.storageSeconds(metrics(100, 0), 1)
    val t2 = b.storageSeconds(metrics(200, 0), 1)
    assert(math.abs(t2 - 2 * t1) < 1e-12)
    val v1 = b.storageSeconds(metrics(0, 100), 1)
    val v2 = b.storageSeconds(metrics(0, 300), 1)
    assert(math.abs(v2 - 3 * v1) < 1e-12)
  }

  test("more workers never slow a backend down") {
    val m = metrics(12345, 67890)
    for (b <- Backend.all; p <- 1 until 16) {
      assert(b.storageSeconds(m, p + 1) < b.storageSeconds(m, p))
    }
  }

  test("scans counts both store kinds") {
    assert(KVMetrics(kvScans = 2, taavScans = 3).scans == 5)
  }

  test("toString formats a summary") {
    assert(metrics(1, 2).toString.contains("gets=1"))
  }
}
