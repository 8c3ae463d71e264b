package repro.kv

import repro.SparkSpec
import repro.TestSchemas

class TaaVStoreSpec extends SparkSpec {
  private lazy val s = spark

  private lazy val store = {
    import s.implicits._
    TaaVStore.build(TestSchemas.cat, Map(
      "NATION"   -> Seq((1, "GERMANY"), (2, "FRANCE")).toDF("nationkey", "name"),
      "SUPPLIER" -> Seq((10L, 1), (20L, 2), (30L, 2)).toDF("suppkey", "nationkey"),
    ))
  }

  test("build materializes row counts") {
    assert(store.rowCount == Map("NATION" -> 2L, "SUPPLIER" -> 3L))
  }

  test("cells = rows × arity") {
    assert(store.cells("SUPPLIER") == 6)
  }

  test("a scan costs one get per tuple (§3)") {
    val (_, m) = store.scan("SUPPLIER")
    assert(m.gets == 3)
    assert(m.valuesAccessed == 6)
    assert(m.commCells == 6)
    assert(m.taavScans == 1)
  }

  test("scans accumulate across relations") {
    val m = store.scan("SUPPLIER")._2 + store.scan("NATION")._2
    assert(m.gets == 5 && m.scans == 2)
  }

  test("unknown relations are rejected") {
    assertThrows[NoSuchElementException](store.relation("NOPE"))
  }
}
