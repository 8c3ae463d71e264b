package repro.kv

import org.apache.spark.sql.{DataFrame, functions => F}
import repro.core.model.{BaaVSchema, KVSchema}

/** A KV instance of `~R⟨X,Y⟩` (§4.1), physically a DataFrame with the key
  * columns plus a `__block` column `array<struct<Y>>` — literally "block
  * as a value". Blocks keep bag multiplicity (`collect_list`) so KBA
  * evaluation agrees with SQL bag semantics.
  *
  * Oversized blocks are split into segments sharing the key (§8.2): rows
  * with the same key values form one *logical* keyed block; `degree` and
  * `numBlocks` are computed over logical blocks.
  *
  * Every access ([[scan]], [[get]]) returns its own cost, as
  * [[TaaVStore.scan]] does.
  */
final class KVInstance private[kv] (val schema: KVSchema, private[kv] val blocked: DataFrame) {
  import KVInstance.BLOCK

  /** Number of logical keyed blocks, number of tuples, and deg(~D), the
    * maximum logical block size (§4.1): one aggregate over the logical
    * blocks, whose segments' sizes are summed.
    */
  lazy val (numBlocks: Long, numTuples: Long, degree: Long) = {
    val sizes = blocked.groupBy(schema.key.map(F.col): _*)
      .agg(F.sum(F.size(F.col(BLOCK))).as("__sz"))
    val r = sizes.agg(F.count(F.lit(1)), F.coalesce(F.sum("__sz"), F.lit(0L)),
                      F.coalesce(F.max("__sz"), F.lit(0L))).head()
    (r.getLong(0), r.getLong(1), r.getLong(2))
  }

  /** Total cells stored (key cells once per block + value cells per tuple). */
  lazy val cells: Long = numBlocks * schema.key.size + numTuples * schema.value.size

  /** The relational version of the instance (§4.1): flatten every block. */
  def flatten: DataFrame = rowsOf(blocked)

  /** Key and value columns of every tuple of `df`'s blocks; rows whose
    * block is NULL yield nothing.
    */
  private def rowsOf(df: DataFrame): DataFrame =
    df.withColumn("__t", F.explode(F.col(BLOCK))).select(
      schema.key.map(F.col) ++ schema.value.map(v => F.col(s"__t.$v").as(v)): _*)

  /** Scan the whole instance: one get per logical block, every cell read
    * and shipped.
    */
  def scan: (DataFrame, KVMetrics) =
    (flatten, KVMetrics(gets = numBlocks, valuesAccessed = cells, commCells = cells, kvScans = 1))

  /** Point access `get(k)` (§4.1) for every distinct row of `keys` (columns
    * named as the key), executed as in §7.2: the keys are shipped to the
    * store and left-joined to the blocks, so only their blocks are read.
    * The join is cached and one aggregate over it counts its cost:
    *  - one get per distinct key, NULL and missing keys included;
    *  - `#data`: the key cells of every fetched segment plus its tuples;
    *  - comm: the shipped key cells plus `#data`.
    *
    * Returns the fetched tuples (key and value columns), the cost, and the
    * cached join, which the caller must unpersist once the tuples are used.
    */
  def get(keys: DataFrame): (DataFrame, KVMetrics, DataFrame) = {
    val joined = keys.distinct().join(blocked, schema.key, "left").cache()
    val block = F.col(BLOCK)
    val r = joined.agg(F.count_distinct(F.struct(schema.key.map(F.col): _*)), F.count(block),
                       F.coalesce(F.sum(F.when(block.isNotNull, F.size(block))), F.lit(0L))).head()
    val (nKeys, segs, tuples) = (r.getLong(0), r.getLong(1), r.getLong(2))
    val data = segs * schema.key.size + tuples * schema.value.size
    (rowsOf(joined), KVMetrics(gets = nKeys, valuesAccessed = data,
                               commCells = nKeys * schema.key.size + data), joined)
  }

  /** Compression (§8.2): re-encode every block as its distinct value
    * tuples, each attached with a multiplicity counter `__cnt`. The
    * relational version is recoverable exactly (see [[compressedFlatten]]).
    *
    * Library code: no query path uses compression yet.
    */
  def compressed: DataFrame = {
    val rows = flatten
      .groupBy(schema.attrs.map(F.col): _*)
      .agg(F.count(F.lit(1)).as("__cnt"))
    rows
      .groupBy(schema.key.map(F.col): _*)
      .agg(F.collect_list(F.struct((schema.value :+ "__cnt").map(F.col): _*)).as(BLOCK))
  }

  /** Cells stored under compression (counters included). Library code: no
    * query path uses it yet.
    */
  def compressedCells: Long = {
    val c = compressed
    val tuples = c.agg(F.sum(F.size(F.col(BLOCK)))).head()
    val nTuples = if (tuples.isNullAt(0)) 0L else tuples.getLong(0)
    c.count() * schema.key.size + nTuples * (schema.value.size + 1)
  }

  /** Expand a compressed instance back to its relational version. Library
    * code: no query path uses it yet.
    */
  def compressedFlatten: DataFrame = {
    val exploded = compressed.withColumn("__t", F.explode(F.col(BLOCK)))
    val rows = exploded.select(
      schema.key.map(F.col) ++
        (schema.value :+ "__cnt").map(v => F.col(s"__t.$v").as(v)): _*)
    rows
      .withColumn("__dup", F.expr("explode(array_repeat(1, int(__cnt)))"))
      .select(schema.attrs.map(F.col): _*)
  }

  /** Per-block group-by statistics (§8.2): min / max / sum / count of the
    * given numeric value attributes, aggregated per key — Zidian uses
    * these to answer aggregate queries grouped by the block key without
    * touching the tuples.
    *
    * Library code: no query path uses per-block statistics yet.
    */
  def blockStats(numericValueAttrs: Seq[String]): DataFrame = {
    require(numericValueAttrs.forall(schema.value.contains),
            "stats attrs must be value attributes")
    val aggs = numericValueAttrs.flatMap { a =>
      Seq(F.min(F.col(a)).as(s"${a}_min"), F.max(F.col(a)).as(s"${a}_max"),
          F.sum(F.col(a)).as(s"${a}_sum"))
    } :+ F.count(F.lit(1)).as("block_count")
    flatten.groupBy(schema.key.map(F.col): _*).agg(aggs.head, aggs.tail: _*)
  }
}

object KVInstance {
  private[kv] val BLOCK = "__block"

  /** Map a relation onto `~R⟨X,Y⟩`: project on XY, then group by X (§4.1).
    * `maxBlockSize` splits blocks larger than the threshold into segments
    * with the same key (§8.2). Library code: no workload or query path
    * splits blocks yet.
    */
  def fromRelation(df: DataFrame, schema: KVSchema, maxBlockSize: Option[Int] = None): KVInstance = {
    require(schema.value.nonEmpty, s"KV instance ${schema.name} needs value attributes")
    val proj = df.select(schema.attrs.map(F.col): _*)
    val withSeg = maxBlockSize match {
      case Some(s) =>
        import org.apache.spark.sql.expressions.Window
        val w = Window.partitionBy(schema.key.map(F.col): _*).orderBy(schema.value.map(F.col): _*)
        proj.withColumn("__seg", F.floor((F.row_number().over(w) - 1) / s))
      case None => proj.withColumn("__seg", F.lit(0))
    }
    val grouped = withSeg
      .groupBy((schema.key :+ "__seg").map(F.col): _*)
      .agg(F.collect_list(F.struct(schema.value.map(F.col): _*)).as(BLOCK))
      .drop("__seg")
    new KVInstance(schema, grouped)
  }
}

/** A BaaV store `~D` of a BaaV schema `~R` (§4.1): one KV instance per KV
  * schema, plus incremental maintenance (§8.2: `O(|Δ|·deg)` — only blocks
  * whose keys appear in the update are rebuilt).
  */
final class BaaVStore(val schema: BaaVSchema, val instances: Map[String, KVInstance]) {

  def apply(name: String): KVInstance =
    instances.getOrElse(name, throw new NoSuchElementException(s"unknown KV instance $name"))

  /** deg(~D): maximum degree across instances. */
  def degree: Long = if (instances.isEmpty) 0L else instances.values.map(_.degree).max

  /** Release the cached instances. */
  def unpersist(): Unit = instances.values.foreach(_.blocked.unpersist())

  private def updateInstances(rel: String)(f: KVInstance => KVInstance): BaaVStore = {
    val updated = instances.map {
      case (n, inst) if inst.schema.rel == rel => n -> f(inst)
      case other                               => other
    }
    new BaaVStore(schema, updated)
  }

  /** Insert `delta` tuples of relation `rel`; only affected blocks change. */
  def insert(rel: String, delta: DataFrame): BaaVStore = updateInstances(rel) { inst =>
    val s = inst.schema
    val proj = delta.select(s.attrs.map(F.col): _*)
    val affKeys = proj.select(s.key.map(F.col): _*).distinct()
    val oldAffected = inst.flatten.join(affKeys, s.key)
    val rebuilt = KVInstance.fromRelation(oldAffected.unionByName(proj), s)
    val untouched = inst.blocked.join(affKeys, s.key, "left_anti")
    new KVInstance(s, untouched.unionByName(rebuilt.blocked))
  }

  /** Delete `delta` tuples of relation `rel` (bag difference per block). */
  def delete(rel: String, delta: DataFrame): BaaVStore = updateInstances(rel) { inst =>
    val s = inst.schema
    val proj = delta.select(s.attrs.map(F.col): _*)
    val affKeys = proj.select(s.key.map(F.col): _*).distinct()
    val remaining = inst.flatten.join(affKeys, s.key).exceptAll(proj)
    val untouched = inst.blocked.join(affKeys, s.key, "left_anti")
    if (remaining.isEmpty) new KVInstance(s, untouched)
    else new KVInstance(s, untouched.unionByName(KVInstance.fromRelation(remaining, s).blocked))
  }
}

object BaaVStore {

  /** Map a database `D` onto `~R` (§4.1): cache every instance, filled by
    * the one job that computes its shape (`numBlocks`, `numTuples`,
    * `degree`).
    */
  def build(schema: BaaVSchema, data: Map[String, DataFrame]): BaaVStore = {
    val insts = schema.kvs.map { kv =>
      val df = data.getOrElse(kv.rel, throw new NoSuchElementException(s"no data for ${kv.rel}"))
      val inst = new KVInstance(kv, KVInstance.fromRelation(df, kv).blocked.cache())
      inst.degree
      kv.name -> inst
    }.toMap
    new BaaVStore(schema, insts)
  }
}
