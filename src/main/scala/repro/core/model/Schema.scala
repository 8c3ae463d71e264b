package repro.core.model

/** Column types carried by the catalog.
  *
  * They drive (a) CAST insertion in generated SQL so that Spark, DuckDB
  * (whose oracle tables are all VARCHAR) and the KBA executor agree on
  * comparison/aggregation semantics, and (b) typed literals in KBA plans.
  */
sealed trait ColType
object ColType {
  case object LongT   extends ColType
  case object IntT    extends ColType
  case object DoubleT extends ColType
  case object StringT extends ColType
  case object DateT   extends ColType
}

/** A conventional relation schema `R(Z)` with an optional primary key. */
final case class RelSchema(name: String, cols: Seq[(String, ColType)], pk: Seq[String]) {
  require(pk.forall(c => cols.exists(_._1 == c)), s"pk of $name not in columns")

  /** Attribute names, in declaration order. */
  def attrs: Seq[String] = cols.map(_._1)

  /** Type of column `c`; throws if `c` is not a column of this relation. */
  def typeOf(c: String): ColType =
    cols.collectFirst { case (`c`, t) => t }
      .getOrElse(throw new NoSuchElementException(s"$name has no column $c"))
}

/** The relational schema `R`: a set of relation schemas, by name. */
final case class Catalog(relations: Seq[RelSchema]) {
  private val byName = relations.map(r => r.name -> r).toMap

  def apply(name: String): RelSchema =
    byName.getOrElse(name, throw new NoSuchElementException(s"unknown relation $name"))

  def contains(name: String): Boolean = byName.contains(name)
}

/** A KV schema `~R⟨X,Y⟩` under BaaV: key attributes X, value attributes Y,
  * all drawn from one base relation `rel` (the convention of §4.1).
  *
  * `pkOpt` is the optional declared primary key W ⊆ XY of the KV schema;
  * when absent, `pk` falls back to the base relation's pk if contained in
  * XY, else to the key X (see DESIGN.md §6).
  */
final case class KVSchema(
    name: String,
    rel: String,
    key: Seq[String],
    value: Seq[String],
    pkOpt: Option[Seq[String]] = None,
) {
  require(key.nonEmpty, s"KV schema $name must have a non-empty key")
  require((key ++ value).distinct.size == key.size + value.size,
          s"KV schema $name has duplicate attributes")

  /** att(~R): all attributes of the KV schema. */
  def attrs: Seq[String] = key ++ value

  /** pk(~R) used by the clo() closure of Condition (I). */
  def pk(cat: Catalog): Seq[String] = pkOpt.getOrElse {
    val rpk = cat(rel).pk
    if (rpk.nonEmpty && rpk.forall(attrs.contains)) rpk else key
  }
}

/** A BaaV schema `~R`: a set of KV schemas. */
final case class BaaVSchema(kvs: Seq[KVSchema]) {
  require(kvs.map(_.name).distinct.size == kvs.size, "duplicate KV schema names")
  private val byName = kvs.map(k => k.name -> k).toMap

  def apply(name: String): KVSchema =
    byName.getOrElse(name, throw new NoSuchElementException(s"unknown KV schema $name"))

  /** KV schemas whose base relation is `rel`. */
  def forRel(rel: String): Seq[KVSchema] = kvs.filter(_.rel == rel)
}

/** An alias-qualified attribute occurrence in a query, e.g. `N.nationkey`.
  *
  * `field` is the flattened Spark column name used by the KBA executor
  * (dots are not safe in DataFrame column names).
  */
final case class Attr(alias: String, col: String) {
  def qname: String = s"$alias.$col"
  def field: String = s"${alias}__$col"
}
