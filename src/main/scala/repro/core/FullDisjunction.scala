package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

import AlignedTuples._

/** ALITE's integration result: tuples in integration-ID space plus the
  * alignment that produced them.
  *
  * `tuples` has the `AlignedTuples` layout: `vals` (array<string>),
  * `covered` (Long bitmask of attributes some contributing table had a
  * column for), `tabs`, `tids`, in that order.
  */
final case class IntegratedTable(alignment: Alignment, tuples: DataFrame) {

  /** Output attribute names (one per integration ID). */
  def columnNames: Vector[String] = alignment.names

  /** Plain relational view: `TIDs` + one string column per integration ID.
    * Missing and produced nulls are both SQL nulls here (analytics view).
    */
  def asTable: DataFrame = {
    val valueCols = columnNames.zipWithIndex.map { case (n, i) =>
      col(ValsCol).getItem(i).as(n)
    }
    tuples.select(col(TidsCol).as("TIDs") +: valueCols: _*)
  }

  /** Presentation view distinguishing the paper's two null kinds: a cell
    * is `±` when the attribute was covered by a contributing table but the
    * value was missing in the input, `⊥` when no contributing table had
    * the attribute (null produced by integration padding).
    */
  def rendered: DataFrame = {
    val valueCols = columnNames.zipWithIndex.map { case (n, i) =>
      val covered = col(CoveredCol).bitwiseAND(lit(1L << i)) =!= 0L
      coalesce(col(ValsCol).getItem(i), when(covered, lit("±")).otherwise(lit("⊥"))).as(n)
    }
    tuples.select(concat_ws(",", col(TidsCol)).as("TIDs") +: valueCols: _*)
  }
}

/** Spark implementation of ALITE's Full Disjunction.
  *
  * Semantics (see DESIGN.md §2): one output tuple per maximal set S of
  * input tuples with ≤1 tuple per table, join-consistent on every
  * integration ID, and connected via shared non-null equal attributes;
  * value-subsumed outputs removed. Nulls never join.
  *
  * Algorithm: pairwise complementation closure over one join kernel.
  * `sharing` explodes both sides once per non-null attribute into an
  * `(index, value)` key and equi-joins on it, so a pair of tuples meets
  * once per attribute they share. Each round joins the frontier (tuples
  * discovered last round) against all tuples this way, keeps consistent
  * table-disjoint pairs, and merges each into one tuple
  * (`AlignedTuples.merged`); fixpoint when a round yields no new
  * `(vals, tids)` tuple. A combined tuple spans strictly more
  * source tables than the frontier tuple it extends, so the closure ends
  * after at most as many rounds as there are tables. Lineage is cut every
  * round with `localCheckpoint` (iterative algorithm). Finally,
  * value-duplicate rows are merged (unioning their TID-sets) and
  * dominated rows are removed by a self-join through the same kernel.
  */
object FullDisjunction extends Integrator {

  override def name: String = "alite-fd"

  /** Align with `matcher` and integrate with FD. */
  override def integrate(tables: Seq[(String, DataFrame)],
                         matcher: SchemaMatcher): IntegratedTable = {
    require(tables.nonEmpty, "integration set is empty")
    val alignment = matcher.align(tables)
    val t0 = AlignedTuples.build(tables, alignment)
    IntegratedTable(alignment, integrateAligned(t0, alignment.numIids))
  }

  /** FD over an already-aligned outer union (`AlignedTuples.build` shape),
    * for callers that align once and integrate the tuples themselves.
    */
  def integrateAligned(t0: DataFrame, m: Int): DataFrame = {
    require(m >= 1, "no aligned attributes")
    finish(closure(t0))
  }

  /** The merged consistent, connected, table-disjoint pairs of `a` × `b`
    * in the aligned-tuple layout, one row per attribute the pair shares.
    */
  private[core] def complement(a: DataFrame, b: DataFrame): DataFrame =
    combineRound(a, b).select(merged: _*)

  /** Merge value duplicates and drop dominated rows; the columns keep the
    * layout's order.
    */
  private[core] def finish(rows: DataFrame): DataFrame = subsume(dedupValues(rows))

  // ------------------------------------------------------------- the kernel

  /** One row per non-null attribute of each row of `df`, columns prefixed
    * with `p`, plus the `(p idx, p val)` key of that attribute.
    */
  private def byAttr(df: DataFrame, p: String): DataFrame =
    prefixed(df, p)
      .select(col("*"), posexplode(col(p + ValsCol)).as(Seq(p + "idx", p + "val")))
      .where(col(p + "val").isNotNull)

  /** Pairs of an `a_` row and a `b_` row with an equal non-null value on
    * the same attribute, once per such attribute.
    */
  private def sharing(a: DataFrame, b: DataFrame): DataFrame =
    byAttr(a, "a_").join(byAttr(b, "b_"),
      col("a_idx") === col("b_idx") && col("a_val") === col("b_val"))

  /** `pred` holds for every attribute of `a_vals` and `b_vals`. */
  private def everyAttr(pred: (Column, Column) => Column): Column =
    forall(zip_with(col("a_" + ValsCol), col("b_" + ValsCol), pred), identity)

  // ---------------------------------------------------------------- closure

  private val tupleId = Seq(ValsCol, TidsCol)

  private def closure(t0: DataFrame): DataFrame = {
    // `all` is the lazy union of per-round checkpointed frontiers — only the
    // fresh tuples of a round are ever materialized.
    val base = t0.dropDuplicates(tupleId).localCheckpoint()
    var generations = Vector(base)
    def all = generations.reduce(_ unionByName _)
    var frontier = base
    // Terminates: a fresh tuple joins a frontier tuple with a table-disjoint
    // one, so round r's frontier spans ≥ r+1 tables; it is empty once r
    // reaches the number of source tables.
    var grew = !base.isEmpty
    while (grew) {
      frontier = complement(frontier, all).dropDuplicates(tupleId)
        .join(all.select(tupleId.map(col): _*), tupleId, "left_anti")
        .localCheckpoint()
      grew = !frontier.isEmpty
      if (grew) generations :+= frontier
    }
    all
  }

  /** The consistent, table-disjoint pairs of `frontier` × `all` that share
    * a value, as prefixed `a_`/`b_` columns.
    */
  private def combineRound(frontier: DataFrame, all: DataFrame): DataFrame =
    sharing(frontier, all).where(
      size(array_intersect(col("a_" + TabsCol), col("b_" + TabsCol))) === 0 &&
        everyAttr((x, y) => x.isNull || y.isNull || x === y))

  // ------------------------------------------------- dedup and subsumption

  /** Merge value-identical tuples. Each TID-set lies inside a ⊆-maximal
    * one, so the union of all is the union of the maximal sets FD keeps.
    */
  private def dedupValues(rows: DataFrame): DataFrame = {
    def union(c: String) = array_sort(array_distinct(flatten(collect_list(c)))).as(c)
    rows.groupBy(col(ValsCol))
      .agg(expr(s"bit_or($CoveredCol)").as(CoveredCol), union(TabsCol), union(TidsCol))
  }

  /** Remove value-dominated tuples. `u` dominates `t` when `u` agrees with
    * every non-null value of `t` and has strictly more non-null values, so
    * it shares every value of `t`: the `a_` side of `sharing` is `t`.
    */
  private def subsume(dedup: DataFrame): DataFrame = {
    def nonNull(vals: Column): Column = size(filter(vals, _.isNotNull))
    val dominated = sharing(dedup, dedup)
      .where(nonNull(col("b_" + ValsCol)) > nonNull(col("a_" + ValsCol)) &&
        everyAttr((t, u) => t.isNull || t === u))
      .select(col("a_" + ValsCol).as(ValsCol))
    dedup.join(dominated, Seq(ValsCol), "left_anti")
  }
}
