package dialbench

import java.io.File

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col

import repro.{Dialite, Oracle, SynthData}
import repro.analyze.Analytics
import repro.core._
import repro.demo.PaperTables
import repro.discovery.{LshEnsemble, Santos}
import repro.er.{EntityResolver, SynonymDict}
import repro.gen.QueryTableGen
import repro.lake.{GroundTruth, LakeGen, ParquetLake}

/** One benchmark workload: inputs prepared by `setup`, then ops that cycle
  * through `cycle` kinds. A run warms up with one untimed op, `warmupOp`,
  * and times whole cycles.
  */
trait Workload {
  def cycle: Int
  def warmupOp: Int = 0

  /** How many times a run prepares the inputs; `setup_s` is the median. */
  def setupPasses: Int

  /** Prepares fresh inputs; ops use those of the last call. Returns the
    * follow-up, run outside the timing, that records the inputs' size.
    */
  def setup(): () => Unit

  /** Tables and tuples of the prepared inputs. */
  def inputSize: (Int, Long)

  /** Runs op `i`, leaving its results collected on the driver. Returns the
    * follow-up, run outside the timing: it checks the results against an
    * independent reference, throwing on a mismatch, records row counts for
    * a traced op, and returns the tuples the op fed into integration.
    */
  def run(i: Int): () => Long
}

/** Calls into the layers, shared by the workloads. */
final class Layers(val spark: SparkSession, val t: Tracer) {
  val matcher = new TracedMatcher(new HolisticMatcher(), t)

  /** The integrated table with its tuples collected to the driver and held
    * as a local relation, the way the demo renders it. Later stages then
    * read the collected rows instead of recomputing the plan.
    */
  def collected(it: IntegratedTable): IntegratedTable = {
    val rows = it.tuples.collect()
    IntegratedTable(it.alignment,
      spark.createDataFrame(java.util.Arrays.asList(rows: _*), it.tuples.schema))
  }

  /** Rows of a collected table; reading them starts no Spark job. */
  def size(it: IntegratedTable): Long = it.tuples.collect().length.toLong

  /** `FullDisjunction.integrate`, result collected. A traced op runs the same
    * three steps one by one, forcing the outer union so that align, outer
    * union and closure are timed apart.
    */
  object fd extends Integrator {
    override def name: String = FullDisjunction.name

    override def integrate(tables: Seq[(String, DataFrame)],
                           m: SchemaMatcher): IntegratedTable =
      if (!t.enabled) collected(FullDisjunction.integrate(tables, m))
      else {
        val alignment = m.align(tables)
        val (t0, n0) = t.span("core.outer_union") {
          val d = AlignedTuples.build(tables, alignment).cache()
          (d, d.count())
        }
        val out = t.span("core.fd") {
          collected(IntegratedTable(alignment,
            FullDisjunction.integrateAligned(t0, alignment.numIids)))
        }
        t0.unpersist()
        t.count("core.outer_union.rows_out", n0.toDouble)
        t.rows("core.fd", n0, size(out))
        out
      }
  }

  def outerJoin(tables: Seq[(String, DataFrame)]): IntegratedTable =
    t.span("core.outer_join")(collected(OuterJoinIntegration.integrate(tables, matcher)))

  /** Records `in` input tuples entering align (which passes them on) and
    * then the outer union of FD, or the outer join with its output rows.
    */
  def integrationRows(in: Long, outerJoinOut: Option[Long] = None): Unit = {
    t.rows("core.align", in, in)
    outerJoinOut match {
      case Some(out) => t.rows("core.outer_join", in, out)
      case None => t.count("core.outer_union.rows_in", in.toDouble)
    }
  }

  def resolve(it: IntegratedTable): IntegratedTable =
    t.span("er")(collected(EntityResolver.resolve(it)))

  /** Records ER's rows and its input's largest block. */
  def erRows(in: IntegratedTable, out: IntegratedTable): Unit = {
    t.rows("er", size(in), size(out))
    t.countMax("er.max_block", maxBlock(in).toDouble)
  }

  /** The most rows of `it` sharing one attribute's ER blocking key. */
  private def maxBlock(it: IntegratedTable): Int = {
    val rows = it.tuples.collect().map(_.getSeq[String](0))
    (0 until it.alignment.numIids).flatMap { j =>
      rows.flatMap(r => Option(r(j)).map(SynonymDict.default.key))
        .groupBy(identity).values.map(_.length)
    }.maxOption.getOrElse(0)
  }

  /** Cached copies of `tables`, each forced; returns them and their tuples. */
  def materialise(tables: Seq[(String, DataFrame)]): (Seq[(String, DataFrame)], Long) = {
    val cached = tables.map { case (n, d) => n -> d.cache() }
    (cached, cached.map(_._2.count()).sum)
  }

  def check(ok: Boolean, what: => String): Unit =
    if (!ok) throw new IllegalStateException(s"output check failed: $what")
}

/** The paper's walk-through on its literal tables (Fig 2, 3, 5, 7, 8 and
  * Example 3): every input has at most 16 tuples, so an op's time is the
  * per-job and planning cost of each stage.
  */
final class PaperDemo(l: Layers, wrongExpected: Boolean) extends Workload {
  import l.{check, spark, t}

  override val cycle = 4
  /** FD over Fig 2 with Example 3 runs the most of the code the others use. */
  override val warmupOp = 1
  override val setupPasses = 5

  private var fig2: Seq[(String, DataFrame)] = Nil
  private var fig7: Seq[(String, DataFrame)] = Nil
  private var fig2Tuples = 0L
  private var fig7Tuples = 0L
  private var fig7Results: Option[(IntegratedTable, IntegratedTable)] = None

  private val covidPrompt = "a table about COVID-19 cases with 5 columns and 5 rows"
  /** Fig 5 as printed in the paper. */
  private val fig5 = Set(
    Seq("USA", "5742812", "178701", "2633567", "2930544"),
    Seq("Brazil", "3713876", "116476", "2788841", "808559"),
    Seq("India", "3444061", "61529", "2643788", "738744"),
    Seq("Russia", "982822", "16841", "745930", "219051"),
    Seq("Mexico", "704016", "73814", "442309", "187893"),
  )
  private val vax = "Vaccination Rate (1+ dose)"

  override def setup(): () => Unit = {
    (fig2 ++ fig7).foreach(_._2.unpersist())
    t.span("lake") {
      val (a, na) = l.materialise(PaperTables.fig2(spark))
      val (b, nb) = l.materialise(PaperTables.fig7(spark))
      fig2 = a; fig7 = b; fig2Tuples = na; fig7Tuples = nb
    }
    () => t.rows("lake", 0, fig2Tuples + fig7Tuples)
  }

  override def inputSize: (Int, Long) = (fig2.size + fig7.size, fig2Tuples + fig7Tuples)

  private def rendered(it: IntegratedTable): Seq[Seq[String]] =
    it.rendered.collect().map(r => (0 until r.length).map(r.getString)).toSeq

  override def run(i: Int): () => Long = i % cycle match {
    case 0 =>
      val got = t.span("gen")(QueryTableGen.generate(spark, covidPrompt).collect())
      () => {
        t.rows("gen", 0, got.length)
        check(got.map(r => (0 until r.length).map(r.getString)).toSet == fig5, "Fig 5 table")
        0L
      }
    case 1 =>
      val it = l.fd.integrate(fig2, l.matcher)
      val shown = rendered(it)
      val table = it.asTable
      val stats = t.span("analyze") {
        (Analytics.pearson(table, vax, "Death Rate (per 100k residents)"),
         Analytics.pearson(table, "Total Cases", vax),
         Analytics.argExtreme(table, "City", vax, smallest = true),
         Analytics.argExtreme(table, "City", vax, smallest = false))
      }
      () => {
        l.integrationRows(fig2Tuples)
        t.rows("analyze", shown.size, 4)
        val (rVaxDeath, rCasesVax, lowest, highest) = stats
        check(shown.map(r => (r(0), r(1), r(2), r(3), r(4), r(5))).toSet ==
          PaperTables.fig3Expected, "Fig 3 rows")
        check(math.abs(rVaxDeath - 0.16) < 0.005, s"Example 3 corr 0.16, got $rVaxDeath")
        check(math.abs(rCasesVax - 0.90) < 0.005, s"Example 3 corr 0.90, got $rCasesVax")
        val lowestCity = if (wrongExpected) "Toronto" else "Boston"
        check(lowest == Some((lowestCity, 62.0)), s"Example 3 lowest rate, got $lowest")
        check(highest == Some(("Toronto", 83.0)), s"Example 3 highest rate, got $highest")
        fig2Tuples
      }
    case 2 =>
      fig7Results = None
      val oj = l.outerJoin(fig7)
      val fd = l.fd.integrate(fig7, l.matcher)
      val (ojShown, fdShown) = (rendered(oj), rendered(fd))
      fig7Results = Some((oj, fd))
      () => {
        l.integrationRows(fig7Tuples, Some(ojShown.size.toLong))
        l.integrationRows(fig7Tuples)
        def quads(rs: Seq[Seq[String]]) = rs.map(r => (r(0), r(1), r(2), r(3))).toSet
        check(quads(ojShown) == PaperTables.fig8aExpected, "Fig 8(a) rows")
        check(quads(fdShown) == PaperTables.fig8bExpected, "Fig 8(b) rows")
        2 * fig7Tuples
      }
    case 3 =>
      val (oj, fd) = fig7Results.getOrElse(
        throw new IllegalStateException("ER needs the Fig 7 results of the op before it"))
      val (erOj, erFd) = (l.resolve(oj), l.resolve(fd))
      val (ojShown, fdShown) = (rendered(erOj), rendered(erFd))
      () => {
        l.erRows(oj, erOj)
        l.erRows(fd, erFd)
        def triples(rs: Seq[Seq[String]]) = rs.map(r => (r(1), r(2), r(3))).toSet
        check(triples(ojShown) == PaperTables.fig8cExpected, "Fig 8(c) rows")
        check(triples(fdShown) == PaperTables.fig8dExpected, "Fig 8(d) rows")
        0L
      }
  }
}

/** FD reintegration of TPC-H-lite key–FK fragments (the shape of the
  * lake's family 4). `nationkey` has 25 values and `mktsegment` 5, so each
  * closure round materialises and rejects many candidate pairs.
  */
final class TpchReintegrate(l: Layers, seed: Long, wrongExpected: Boolean) extends Workload {
  import l.{spark, t}

  override val cycle = 1
  override val setupPasses = 5
  val sf = 0.001

  private var fragments: Seq[(String, DataFrame)] = Nil
  private var tuples = 0L

  override def setup(): () => Unit = {
    fragments.foreach(_._2.unpersist())
    t.span("lake") {
      val cust = SynthData.customer(spark, sf, seed = seed + 10)
      val ords = SynthData.orders(spark, sf, seed = seed + 11)
      val (f, n) = l.materialise(Seq(
        "cust_keys" -> cust.select(
          col("c_custkey").cast("string").as("custkey"),
          col("c_nationkey").cast("string").as("nationkey"),
          col("c_acctbal").cast("string").as("acctbal")),
        "cust_seg" -> cust.select(
          col("c_custkey").cast("string").as("custkey"),
          col("c_mktsegment").cast("string").as("mktsegment")),
        "orders_cust" -> ords.select(
          col("o_orderkey").cast("string").as("orderkey"),
          col("o_custkey").cast("string").as("custkey"),
          col("o_totalprice").cast("string").as("totalprice"))))
      fragments = f; tuples = n
    }
    () => t.rows("lake", 0, tuples)
  }

  override def inputSize: (Int, Long) = (fragments.size, tuples)

  override def run(i: Int): () => Long = {
    val it = l.fd.integrate(fragments, l.matcher)
    () => {
      l.integrationRows(tuples)
      val join = if (wrongExpected) "JOIN" else "FULL JOIN"
      // The fragments are γ-acyclic, so FD equals the chain of full joins.
      Oracle.assertEquivalent(
        it.asTable.select("custkey", "nationkey", "acctbal", "mktsegment",
                          "orderkey", "totalprice"),
        s"""SELECT custkey, nationkey, acctbal, mktsegment, orderkey, totalprice
           |FROM cust_keys
           |$join cust_seg USING (custkey)
           |$join orders_cust USING (custkey)""".stripMargin,
        fragments: _*)
      tuples
    }
  }
}

/** One DIALITE query per op over a generated lake persisted as Parquet:
  * discover (SANTOS ∪ LSH Ensemble), integrate with ALITE FD, resolve
  * entities and describe the result. The query cycles through the lake's
  * `cases_p*` tables, each with its city column as the query column.
  */
final class LakePipeline(l: Layers, seed: Long, workDir: File, wrongExpected: Boolean)
    extends Workload {
  import l.{check, spark, t}

  val sf = 0.004
  val k = 2
  /** A pass takes several seconds; two keep a run short enough. */
  override val setupPasses = 2

  private var passes = 0
  private var dir: File = _
  private var truth: GroundTruth = _
  private var lake: ParquetLake = _
  private var lsh: LshEnsemble = _
  private var discoverers: Seq[TracedDiscoverer] = Nil
  private var dialite: Dialite = _
  private var queries: Seq[String] = Nil
  private val tableRows = mutable.Map.empty[String, Long]
  private val reference = mutable.Map.empty[(Seq[String], Alignment), Set[Seq[Option[String]]]]

  /** Every op is a query of the same kind; the query table rotates. */
  override val cycle = 1

  override def setup(): () => Unit = {
    val previous = Option(dir)
    Option(lsh).foreach(_.index.unpersist())
    dir = new File(workDir, s"lake-$passes")
    passes += 1
    val gen = t.span("lake") {
      val g = LakeGen.generate(spark, sf, seed)
      ParquetLake.write(g.lake, dir.getPath)
      lake = new ParquetLake(spark, dir.getPath)
      g
    }
    val santos = new Santos(lake, gen.kb)
    // An empty query still types every lake table: SANTOS' offline step.
    t.span("discovery.santos")(santos.discover(spark.emptyDataFrame, None, 1))
    lsh = new LshEnsemble(spark, lake)
    t.span("discovery.lsh")(lsh.index.count())
    truth = gen.truth
    discoverers = Seq(new TracedDiscoverer("discovery.santos", santos, t),
                      new TracedDiscoverer("discovery.lsh", lsh, t))
    dialite = new Dialite(spark, lake, discoverers,
      integrators = Map(l.fd.name -> l.fd), matcher = l.matcher)
    queries = lake.tableNames.filter(_.startsWith("cases_p"))
    () => {
      previous.foreach(deleteTree)
      tableRows.clear()
      reference.clear()
      t.rows("lake", 0, inputSize._2)
    }
  }

  private def rowsOf(table: String): Long =
    tableRows.getOrElseUpdate(table, lake.table(table).count())

  override def inputSize: (Int, Long) = (lake.tableNames.size, lake.tableNames.map(rowsOf).sum)

  override def run(i: Int): () => Long = {
    val q = queries(i % queries.size)
    val query = lake.table(q)
    val set = dialite.discover(query, Some(query.columns(0)), k, queryName = q)
      .distinctBy(_._1)
    val hits = discoverers.map(d => d.layer -> d.lastHits.map(_.table))
    val it = dialite.integrate(set, l.fd.name)
    val er = l.resolve(it)
    val stats = t.span("analyze")(Analytics.describe(it.asTable, it.columnNames).collect())
    () => {
      val in = set.map { case (n, _) => rowsOf(n) }.sum
      val out = l.size(it)
      l.integrationRows(in)
      l.erRows(it, er)
      t.rows("analyze", out, stats.length)
      for ((layer, names) <- hits) {
        t.rows(layer, rowsOf(q), names.size)
        // Precision of the hits besides the query table itself.
        val found = names.filter(_ != q)
        val relevant =
          if (layer == "discovery.santos") truth.unionable.getOrElse(q, Set.empty)
          else truth.joinable.collect { case ((`q`, _), ts) => ts }.flatten.toSet
        t.count(layer + ".hits", found.size.toDouble)
        t.count(layer + ".relevant", found.count(relevant).toDouble)
        check(!names.exists(_.startsWith("noise")), s"$layer returned a noise table: $names")
      }
      val got = it.tuples.collect().map(r => r.getSeq[String](0).map(Option(_))).toSet
      check(got == referenceFd(set, it.alignment),
        s"FD of $q differs from NaiveFD.iterative on the same aligned tuples")
      check(l.size(er) <= out && stats.length == it.columnNames.size,
        s"ER or describe output of $q")
      in
    }
  }

  /** FD value tuples of the sequential driver closure over the same aligned
    * tuples. A query's integration set is fixed by the lake, so each set is
    * computed once.
    */
  private def referenceFd(set: Seq[(String, DataFrame)],
                          alignment: Alignment): Set[Seq[Option[String]]] = {
    val ref = reference.getOrElseUpdate((set.map(_._1), alignment), {
      val local = AlignedTuples.build(set, alignment).collect().toSeq.map { r =>
        LocalTuple(r.getSeq[String](0).toVector.map(Option(_)), r.getLong(1),
          r.getSeq[String](2).toSet, r.getSeq[String](3).toSet)
      }
      NaiveFD.iterative(local).map(_.vals: Seq[Option[String]]).toSet
    })
    if (wrongExpected) ref.drop(1) else ref
  }

  def close(): Unit = Option(dir).foreach(deleteTree)

  private def deleteTree(f: File): Unit = {
    Option(f.listFiles).foreach(_.foreach(deleteTree))
    f.delete()
  }
}
