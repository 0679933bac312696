package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.util.Norm

import scala.collection.mutable

/** A column of one table in the integration set, identified positionally
  * (open data headers are unreliable; the position is the identity).
  */
final case class ColumnKey(table: String, index: Int)

/** Result of holistic schema matching over an integration set.
  *
  * @param iidOf  integration ID (0-based, dense) of every data column
  * @param names  display name per integration ID (chosen from the most
  *               frequent meaningful header in the cluster)
  */
final case class Alignment(iidOf: Map[ColumnKey, Int], names: Vector[String]) {
  require(names.size <= 64,
    s"more than 64 integration IDs (${names.size}); FD coverage masks are Long bitmasks")

  def numIids: Int = names.length

  /** Integration IDs covered by `table`, as a bitmask (used for the
    * ± missing-null vs ⊥ produced-null distinction in FD output).
    */
  def coverage(table: String): Long =
    iidOf.collect { case (ColumnKey(t, _), iid) if t == table => 1L << iid }
      .foldLeft(0L)(_ | _)
}

/** Holistic schema matcher: assigns the same integration ID to matching
  * columns across the whole integration set at once (ALITE's "Align").
  */
trait SchemaMatcher {

  /** Align all data columns of `tables`. Columns named `TID` (any case)
    * are provenance, not data, and are excluded.
    */
  def align(tables: Seq[(String, DataFrame)]): Alignment
}

object SchemaMatcher {
  /** True for provenance columns that must not participate in matching. */
  def isTid(name: String): Boolean = name.equalsIgnoreCase("tid")
}

/** ALITE-style holistic matcher.
  *
  * The published ALITE matcher embeds columns (fastText + SimCSE) and runs
  * constrained clustering; offline we substitute the embedding with two
  * cheap signals that drive the same clustering structure:
  *
  *   - header evidence: Jaccard over header tokens (dummy headers like
  *     `col3` contribute nothing);
  *   - instance evidence: Jaccard over a bottom-k sample of each column's
  *     normalized values: its `SampleSize` values with the smallest
  *     `xxhash64`, so equal value sets get equal samples whatever the
  *     partitioning. One query over the union of `AlignedTuples.melt` of
  *     all tables samples every column.
  *
  * Edges with similarity ≥ 0.25 are processed in descending order
  * by a union-find that refuses to place two columns of the same table in
  * one cluster — ALITE's hard constraint.
  */
final class HolisticMatcher extends SchemaMatcher {

  private val Threshold = 0.25
  private val SampleSize = 1000

  private final case class Profile(key: ColumnKey, header: String,
                                   tokens: Set[String], values: Set[String],
                                   numeric: Boolean)

  override def align(tables: Seq[(String, DataFrame)]): Alignment = {
    val samples = valueSamples(tables)
    val profiles = for {
      (name, df) <- tables.toVector
      (c, i) <- df.columns.toVector.zipWithIndex if !SchemaMatcher.isTid(c)
      vals = samples.getOrElse(ColumnKey(name, i), Set.empty[String])
      numeric = vals.nonEmpty && vals.count(_.matches("-?\\d+(\\.\\d+)?")) >= vals.size * 0.8
    } yield Profile(ColumnKey(name, i), c, Norm.headerTokens(c), vals, numeric)

    // Candidate edges between columns of different tables.
    val edges = for {
      i <- profiles.indices; j <- (i + 1) until profiles.size
      (p, q) = (profiles(i), profiles(j)) if p.key.table != q.key.table
      sim = similarity(p, q) if sim >= Threshold
    } yield (i, j, sim)

    // Union-find over the edges, strongest first, with the
    // one-column-per-table-per-cluster constraint.
    val parent = Array.tabulate(profiles.size)(identity)
    def find(x: Int): Int = { var r = x; while (parent(r) != r) r = parent(r); parent(x) = r; r }
    val tablesIn = profiles.map(p => Set(p.key.table)).toArray
    for ((a, b, _) <- edges.sortBy { case (a, b, sim) => (-sim, a, b) }) {
      val (ra, rb) = (find(a), find(b))
      if (ra != rb && tablesIn(ra).intersect(tablesIn(rb)).isEmpty) {
        parent(rb) = ra
        tablesIn(ra) ++= tablesIn(rb)
      }
    }

    // Dense integration IDs, deterministic order (first column occurrence).
    val iidOfRoot = profiles.indices.map(find).distinct.zipWithIndex.toMap
    val iidOf = profiles.indices.map(i => profiles(i).key -> iidOfRoot(find(i))).toMap

    val names = Vector.tabulate(iidOfRoot.size) { iid =>
      val headers = profiles.filter(p => iidOf(p.key) == iid).map(_.header)
        .filter(h => Norm.headerTokens(h).nonEmpty)
      if (headers.isEmpty) s"iid_$iid"
      else headers.groupBy(identity).toSeq
        .maxBy { case (h, hs) => (hs.size, -headers.indexOf(h)) }._1
    }
    Alignment(iidOf, dedupeNames(names))
  }

  /** The stronger of header and instance evidence; exact meaningful-header
    * equality is maximal evidence (the common case in curated figures).
    */
  private def similarity(p: Profile, q: Profile): Double = {
    val nameSim =
      if (p.tokens.nonEmpty && p.tokens == q.tokens) 1.0
      else Norm.jaccard(p.tokens, q.tokens)
    // Two plain-integer/decimal columns (keys, measures) overlap by
    // accident all the time in open data; demand near-identical domains
    // before instance evidence alone may merge them.
    val valueSim = Norm.jaccard(p.values, q.values)
    math.max(nameSim, if (p.numeric && q.numeric && valueSim < 0.7) 0.0 else valueSim)
  }

  /** Each data column's bottom-`SampleSize` normalized values, in one action. */
  private def valueSamples(tables: Seq[(String, DataFrame)]): Map[ColumnKey, Set[String]] =
    if (tables.isEmpty) Map.empty
    else {
      val byHash = Window.partitionBy("table", "colIdx")
        .orderBy(xxhash64(col("value")), col("value"))
      tables.map { case (name, df) =>
        val tids = df.columns.indices.filter(i => SchemaMatcher.isTid(df.columns(i)))
        AlignedTuples.melt(name, df).where(!col("colIdx").isin(tids: _*))
      }
        .reduce(_ unionAll _)
        .withColumn("rank", row_number().over(byHash))
        .where(col("rank") <= SampleSize)
        .collect()
        .groupMap(r => ColumnKey(r.getString(0), r.getInt(1)))(r => Norm.basic(r.getString(3)))
        .view.mapValues(_.toSet).toMap
    }

  /** Display names must be unique to become DataFrame column names. */
  private def dedupeNames(names: Vector[String]): Vector[String] = {
    val seen = mutable.Map.empty[String, Int]
    names.map { n =>
      val c = seen.getOrElse(n, 0)
      seen(n) = c + 1
      if (c == 0) n else s"${n}_$c"
    }
  }
}
