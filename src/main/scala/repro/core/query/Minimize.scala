package repro.core.query

import repro.core.model.{Attr, Catalog}

/** Tableau (conjunctive-query) minimization — `min(Q)` of §5.2.
  *
  * An atom is redundant iff dropping it leaves an equivalent query, i.e.
  * there is a homomorphism from Q to the reduced query that fixes the head
  * variables. Head variables are the classes of the projection / group-by /
  * aggregate-argument attributes plus any attribute under a range predicate
  * (ranges must survive minimization — conservative and sound).
  */
object Minimize {

  /** A term of the tableau: a constant or a (class-representative) variable. */
  sealed trait Term
  final case class TConst(v: String) extends Term
  final case class TVar(rep: Attr)   extends Term

  /** Result of minimization.
    *
    * @param query the rewritten minimal equivalent query (== input when no
    *              atom was dropped); `query.attrsOf(alias)` is exactly
    *              `X^{min(Q)}_R` of §5.2
    */
  final case class MinResult(query: Query, dropped: Seq[RelAtom]) {
    def atoms: Seq[RelAtom] = query.atoms
    def xMin(alias: String): Set[Attr] = query.attrsOf(alias)
  }

  private def terms(q: Query, cls: AttrClasses, cat: Catalog): Map[String, Seq[Term]] =
    q.atoms.map { at =>
      at.alias -> cat(at.rel).attrs.map { c =>
        val a = Attr(at.alias, c)
        cls.constOf(a) match {
          case Some(v) => TConst(v)
          case None    => TVar(cls.rep(a))
        }
      }
    }.toMap

  /** Head variables: class reps that a homomorphism must fix. */
  private def headVars(q: Query, cls: AttrClasses): Set[Attr] = {
    val headAttrs = q.projection.map(_._1) ++ q.groupBy.getOrElse(Nil) ++
      q.aggs.flatMap(_.arg) ++ q.preds.collect { case CmpConst(a, _, _) => a }
    headAttrs.map(cls.rep).toSet
  }

  /** Is there a homomorphism from `src` atoms into `dst` atoms fixing `head`? */
  private def homExists(
      src: Seq[RelAtom],
      dst: Seq[RelAtom],
      tm: Map[String, Seq[Term]],
      head: Set[Attr],
  ): Boolean = {
    def unify(s: Term, d: Term, m: Map[Attr, Term]): Option[Map[Attr, Term]] = (s, d) match {
      case (TConst(a), TConst(b))           => if (a == b) Some(m) else None
      case (TConst(_), TVar(_))             => None // a constant cannot map to a variable
      case (TVar(r), d) if head.contains(r) => if (d == TVar(r)) Some(m) else None
      case (TVar(r), d) =>
        m.get(r) match {
          case Some(prev) => if (prev == d) Some(m) else None
          case None       => Some(m + (r -> d))
        }
    }

    def mapAtom(s: RelAtom, d: RelAtom, m: Map[Attr, Term]): Option[Map[Attr, Term]] =
      if (s.rel != d.rel) None
      else tm(s.alias).zip(tm(d.alias)).foldLeft(Option(m)) {
        case (Some(acc), (st, dt)) => unify(st, dt, acc)
        case (None, _)             => None
      }

    def search(rest: List[RelAtom], m: Map[Attr, Term]): Boolean = rest match {
      case Nil       => true
      case s :: tail => dst.exists(d => mapAtom(s, d, m).exists(m2 => search(tail, m2)))
    }
    search(src.toList, Map.empty)
  }

  /** Compute `min(Q)` and rewrite `q` onto the surviving atoms. Exponential
    * in the worst case (SPC minimization is NP-hard, §5.2) but atoms are
    * few in practice.
    */
  def minimize(q: Query, cat: Catalog): MinResult = {
    val cls  = new AttrClasses(q)
    val tm   = terms(q, cls, cat)
    val head = headVars(q, cls)

    var keep = q.atoms
    var changed = true
    while (changed) {
      changed = false
      keep.find { at =>
        keep.size > 1 && homExists(keep, keep.filterNot(_ == at), tm, head)
      } match {
        case Some(at) => keep = keep.filterNot(_ == at); changed = true
        case None     => ()
      }
    }

    if (keep == q.atoms) MinResult(q, Nil)
    else MinResult(rewrite(q, keep, cls, tm, cat), q.atoms.diff(keep))
  }

  /** Rewrite `q` onto the surviving atoms: reconstruct predicates from the
    * tableau terms and remap head attributes of dropped aliases to a
    * surviving member of their equality class (one exists because the
    * homomorphism fixes head variables).
    */
  private def rewrite(
      q: Query,
      keep: Seq[RelAtom],
      cls: AttrClasses,
      tm: Map[String, Seq[Term]],
      cat: Catalog,
  ): Query = {
    val kept = keep.map(_.alias).toSet

    def remap(a: Attr): Attr =
      if (kept.contains(a.alias)) a
      else cls.members(a).find(m => kept.contains(m.alias)).getOrElse(
        throw new IllegalStateException(s"minimization lost head attribute ${a.qname}"))

    // Surviving occurrences per variable, and constant occurrences.
    val occ = scala.collection.mutable.Map.empty[Attr, Vector[Attr]]
    val constPreds = scala.collection.mutable.ArrayBuffer.empty[EqConst]
    for (at <- keep; (t, c) <- tm(at.alias).zip(cat(at.rel).attrs)) t match {
      case TVar(r)   => occ(r) = occ.getOrElse(r, Vector.empty) :+ Attr(at.alias, c)
      case TConst(v) =>
        // Only re-emit constants on attributes the query mentions (unmention-
        // ed columns are never in a constant class — classes are built from
        // predicates — but keep the guard for clarity).
        if (cls.constOf(Attr(at.alias, c)).contains(v)) constPreds += EqConst(Attr(at.alias, c), v)
    }
    val joinPreds = occ.values.toSeq.filter(_.size >= 2).flatMap { as =>
      as.zip(as.tail).map { case (x, y) => EqAttr(x, y) }
    }
    val rangePreds = q.preds.collect { case CmpConst(a, op, v) => CmpConst(remap(a), op, v) }

    q.copy(
      atoms = keep,
      preds = (constPreds.toSeq ++ joinPreds ++ rangePreds).distinct,
      projection = q.projection.map { case (a, out) => (remap(a), out) },
      groupBy = q.groupBy.map(_.map(remap)),
      aggs = q.aggs.map(ag => ag.copy(arg = ag.arg.map(remap))),
    )
  }
}
