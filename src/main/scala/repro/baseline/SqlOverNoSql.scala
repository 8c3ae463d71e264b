package repro.baseline

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.model.Catalog
import repro.core.query.{Query, SqlGen}
import repro.kv.{KVMetrics, TaaVStore}

/** The conventional SQL-over-NoSQL evaluation path (§3): retrieve every
  * relation involved in the query from the TaaV storage layer (a blind
  * scan — one get per tuple), move the data to the SQL layer, and run the
  * query there (SparkSQL over the scanned relations).
  */
final class SqlOverNoSql(cat: Catalog, spark: SparkSession) {

  def answer(q: Query, taav: TaaVStore): (DataFrame, KVMetrics) = {
    val scanned = q.atoms.map(_.rel).distinct.map { rel =>
      val (df, m) = taav.scan(rel)
      df.createOrReplaceTempView(rel)
      m
    }
    (spark.sql(SqlGen.toSql(q, cat)), scanned.foldLeft(KVMetrics.zero)(_ + _))
  }
}
