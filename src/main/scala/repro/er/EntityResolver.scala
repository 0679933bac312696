package repro.er

import org.apache.spark.sql.Row

import scala.collection.mutable

import repro.core.{AlignedTuples, IntegratedTable}

/** Entity resolution downstream application (§2.3, Fig 8(c)/(d)).
  *
  * Stand-in for `py_entitymatching`: token/synonym-based matching rule
  * instead of a learned matcher (see `SynonymDict`). Two integrated tuples
  * match when they agree (under the dictionary) on at least
  * `minAgreements` attributes and conflict on none — which is why ER over
  * the outer-join result cannot resolve the incomplete tuples f9/f10 of
  * Fig 8(a) (a single shared attribute is not enough evidence), while it
  * resolves the completed FD tuples of Fig 8(b).
  *
  * Matching is blocked on per-attribute equivalence keys, clustered by
  * union-find, and clusters are merged attribute-wise to the canonical
  * display form.
  */
object EntityResolver {

  private final case class Rec(vals: Vector[String], covered: Long,
                               tabs: Vector[String], tids: Vector[String])

  def resolve(it: IntegratedTable,
              dict: SynonymDict = SynonymDict.default,
              minAgreements: Int = 2): IntegratedTable = {
    val spark = it.tuples.sparkSession
    val m = it.alignment.numIids

    val recs: Vector[Rec] = it.tuples.collect().toVector.map { r =>
      Rec(
        r.getSeq[String](r.fieldIndex(AlignedTuples.ValsCol)).toVector,
        r.getAs[Long](AlignedTuples.CoveredCol),
        r.getSeq[String](r.fieldIndex(AlignedTuples.TabsCol)).toVector,
        r.getSeq[String](r.fieldIndex(AlignedTuples.TidsCol)).toVector,
      )
    }

    // Blocking: candidate pairs share the equivalence key of ≥1 attribute.
    val blocks = mutable.Map.empty[(Int, String), mutable.ArrayBuffer[Int]]
    for {
      (rec, i) <- recs.zipWithIndex
      j <- 0 until m
      v = rec.vals(j)
      if v != null
    } blocks.getOrElseUpdate((j, dict.key(v)), mutable.ArrayBuffer.empty) += i

    def agreements(a: Rec, b: Rec): (Int, Int) = {
      var agree = 0; var conflict = 0
      for (j <- 0 until m) {
        val (x, y) = (a.vals(j), b.vals(j))
        if (x != null && y != null) {
          if (dict.equivalent(x, y)) agree += 1 else conflict += 1
        }
      }
      (agree, conflict)
    }

    val parent = Array.tabulate(recs.size)(identity)
    def find(x: Int): Int = { var r = x; while (parent(r) != r) r = parent(r); parent(x) = r; r }
    val seenPairs = mutable.Set.empty[(Int, Int)]
    for (ids <- blocks.values if ids.size > 1; ai <- ids.indices; bi <- (ai + 1) until ids.size) {
      val (i, j) = (math.min(ids(ai), ids(bi)), math.max(ids(ai), ids(bi)))
      if (i != j && seenPairs.add((i, j))) {
        val (agree, conflict) = agreements(recs(i), recs(j))
        if (conflict == 0 && agree >= minAgreements) {
          val (ri, rj) = (find(i), find(j))
          if (ri != rj) parent(rj) = ri
        }
      }
    }

    val merged = recs.indices.groupBy(find).values.toVector.map { members =>
      val ms = members.map(recs)
      // Singletons pass through verbatim (Fig 8(c): unresolved tuples keep
      // their original spellings); only merged clusters are canonicalized.
      if (ms.size == 1) ms.head
      else mergeCluster(ms, m, dict)
    }.sortBy(_.vals.map(v => if (v == null) "" else v).mkString(""))

    val rows = merged.map(r => Row(r.vals, r.covered, r.tabs, r.tids))
    val df = spark.createDataFrame(spark.sparkContext.parallelize(rows, 1), AlignedTuples.schema)
    IntegratedTable(it.alignment, df)
  }

  /** Attribute-wise merge of a resolved cluster: canonical display form,
    * majority vote among canonical forms to break transitive disagreements.
    */
  private def mergeCluster(ms: Seq[Rec], m: Int, dict: SynonymDict): Rec = {
    val vals = Vector.tabulate(m) { j =>
      val vs = ms.flatMap(r => Option(r.vals(j)))
      if (vs.isEmpty) null
      else {
        val canon = vs.map(dict.canonical)
        canon.groupBy(identity).maxBy(g => (g._2.size, g._1))._1
      }
    }
    Rec(vals,
        ms.map(_.covered).reduce(_ | _),
        ms.flatMap(_.tabs).distinct.sorted.toVector,
        ms.flatMap(_.tids).distinct.sorted.toVector)
  }
}
