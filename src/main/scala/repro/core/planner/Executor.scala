package repro.core.planner

import org.apache.spark.sql.{Column, DataFrame, SparkSession, functions => F}
import org.apache.spark.sql.types.{DataType, DataTypes}
import repro.core.model.{Attr, Catalog, ColType}
import repro.core.query._
import repro.kv.{BaaVStore, KVMetrics, TaaVStore}
import scala.collection.mutable

/** Interleaved parallel execution of KBA plans (§7.2, module M3).
  *
  * Frames are DataFrames with alias-qualified columns (`alias__col`).
  * Extension `∝` ships the frontier's keys to the KV instance
  * ([[repro.kv.KVInstance.get]]), which fetches only the matching blocks,
  * and joins the fetched tuples back — data access and computation are
  * interleaved instead of fetch-all-first. Every storage access returns its
  * own cost. All of this is ordinary DataFrame code, so Catalyst plans the
  * physical execution and parallelism follows Spark's partitioning.
  */
final class Executor(
    spark: SparkSession,
    cat: Catalog,
    baav: BaaVStore,
    taav: TaaVStore,
) {
  private val memo = mutable.Map.empty[(KPlan, Query), DataFrame]
  private val cachedFrames = mutable.Buffer.empty[DataFrame]
  private var accessed = KVMetrics.zero

  /** Storage access of every frame computed so far. */
  def metrics: KVMetrics = accessed

  /** Unpersist the cached join of every extension. */
  def cleanup(): Unit = {
    cachedFrames.foreach(_.unpersist())
    cachedFrames.clear()
  }

  private def sparkType(t: ColType): DataType = t match {
    case ColType.LongT   => DataTypes.LongType
    case ColType.IntT    => DataTypes.IntegerType
    case ColType.DoubleT => DataTypes.DoubleType
    case ColType.StringT => DataTypes.StringType
    case ColType.DateT   => DataTypes.DateType
  }

  private def typedLit(q: Query, v: String, a: Attr): Column =
    F.lit(v).cast(sparkType(q.typeOf(a, cat)))

  /** Evaluate a full plan: run the body, then apply the query's residual
    * predicates, projection and aggregation (idempotent re-application).
    */
  def run(zp: ZPlan): DataFrame = finish(frame(zp.body, zp.q), zp.q)

  /** The frame of a sub-plan (memoized per query so shared chase prefixes
    * execute once).
    */
  def frame(p: KPlan, q: Query): DataFrame =
    memo.getOrElseUpdate((p, q), compute(p, q))

  /** Rename an unqualified frame's columns `cols` to `alias__col`. */
  private def qualify(df: DataFrame, alias: String, cols: Seq[String]): DataFrame =
    df.select(cols.map(c => F.col(c).as(Attr(alias, c).field)): _*)

  private def compute(p: KPlan, q: Query): DataFrame = p match {

    case KConst(bindings) =>
      val base = spark.range(1).toDF("__unit")
      val withCols = bindings.foldLeft(base) { case (df, (a, v)) =>
        df.withColumn(a.field, typedLit(q, v, a))
      }
      withCols.drop("__unit")

    case KExtend(input, alias, kv, keyMap) =>
      val in = frame(input, q)
      val keys = in.select(keyMap.map {
        case (kcol, FromAttr(a))      => F.col(a.field).as(kcol)
        case (kcol, FromConst(v, ta)) => typedLit(q, v, ta).as(kcol)
      }: _*)
      val (fetched, m, cached) = baav(kv.name).get(keys)
      cachedFrames += cached
      accessed += m
      val joinPairs = keyMap.collect { case (kcol, FromAttr(a)) => (a, Attr(alias, kcol)) }
      joinFrames(in, qualify(fetched, alias, kv.attrs), joinPairs)

    case KScanKV(alias, kv) =>
      val (df, m) = baav(kv.name).scan
      accessed += m
      qualify(df, alias, kv.attrs)

    case KScanRel(alias, rel, cols) =>
      val (df, m) = taav.scan(rel)
      accessed += m
      qualify(df, alias, cols)

    case KJoin(l, r, on) =>
      joinFrames(frame(l, q), frame(r, q), on.map { case (a, b) => (a, b) })
  }

  /** Join two alias-qualified frames on (a) their shared column names and
    * (b) the explicit attr pairs; cross join when no condition applies.
    * Right-side duplicates of shared columns are dropped after the join.
    */
  private def joinFrames(left: DataFrame, right: DataFrame,
                         pairs: Seq[(Attr, Attr)]): DataFrame = {
    val dup = right.columns.toSet.intersect(left.columns.toSet).toSeq.sorted
    val renamed = dup.foldLeft(right)((df, c) => df.withColumnRenamed(c, s"__r_$c"))
    def rname(c: String): String = if (dup.contains(c)) s"__r_$c" else c

    val conds: Seq[Column] =
      dup.map(c => left(c) === renamed(s"__r_$c")) ++
        pairs.flatMap { case (a, b) =>
          if (left.columns.contains(a.field) && right.columns.contains(b.field))
            Some(left(a.field) === renamed(rname(b.field)))
          else if (left.columns.contains(b.field) && right.columns.contains(a.field))
            Some(left(b.field) === renamed(rname(a.field)))
          else None
        }
    val joined =
      if (conds.isEmpty) left.crossJoin(renamed)
      else left.join(renamed, conds.reduce(_ && _))
    joined.drop(dup.map(c => s"__r_$c"): _*)
  }

  /** Residual predicates + projection / group-by aggregation (the σ/π and
    * group-by operators of KBA over the final frame).
    */
  private def finish(df: DataFrame, q: Query): DataFrame = {
    val conds = q.preds.map {
      case EqConst(a, v)      => F.col(a.field) === typedLit(q, v, a)
      case EqAttr(a, b)       => F.col(a.field) === F.col(b.field)
      case CmpConst(a, op, v) =>
        val l = F.col(a.field); val r = typedLit(q, v, a)
        op match {
          case "<"  => l < r
          case "<=" => l <= r
          case ">"  => l > r
          case ">=" => l >= r
          case "<>" => l =!= r
        }
    }
    val filtered = conds.foldLeft(df)(_ filter _)

    def aggArg(a: Attr): Column = q.typeOf(a, cat) match {
      // DECIMAL(18,2) matches the generated SQL, so results compare exactly.
      case ColType.DoubleT | ColType.LongT | ColType.IntT =>
        F.col(a.field).cast(DataTypes.createDecimalType(18, 2))
      case _ => F.col(a.field)
    }
    def aggCol(agg: Agg): Column = agg match {
      case Agg("count", None, as)    => F.count(F.lit(1)).as(as)
      case Agg("count", Some(a), as) => F.count(F.col(a.field)).as(as)
      case Agg("sum", Some(a), as)   => F.sum(aggArg(a)).as(as)
      case Agg("min", Some(a), as)   => F.min(aggArg(a)).as(as)
      case Agg("max", Some(a), as)   => F.max(aggArg(a)).as(as)
      case Agg("avg", Some(a), as)   => F.avg(aggArg(a)).as(as)
      case other                     => throw new IllegalArgumentException(s"bad agg $other")
    }

    q.groupBy match {
      case Some(g) =>
        val grouped = filtered
          .groupBy(g.map(a => F.col(a.field)): _*)
          .agg(aggCol(q.aggs.head), q.aggs.tail.map(aggCol): _*)
        q.projection.foldLeft(grouped) { case (d, (a, out)) =>
          d.withColumnRenamed(a.field, out)
        }
      case None =>
        val projected = filtered.select(q.projection.map { case (a, out) =>
          F.col(a.field).as(out)
        }: _*)
        if (q.distinct) projected.distinct() else projected
    }
  }
}
