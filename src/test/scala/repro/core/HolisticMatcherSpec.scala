package repro.core

import repro.SparkSpec
import repro.demo.PaperTables

/** Holistic schema matching: integration IDs over whole integration sets. */
class HolisticMatcherSpec extends SparkSpec {

  private val matcher = new HolisticMatcher()

  test("Fig 2 aligns to 5 integration IDs with the paper's headers") {
    val a = matcher.align(PaperTables.fig2(spark))
    assert(a.names == Vector("Country", "City", "Vaccination Rate (1+ dose)",
      "Total Cases", "Death Rate (per 100k residents)"))
  }

  test("Fig 2: the three City columns share one integration ID") {
    val a = matcher.align(PaperTables.fig2(spark))
    val cityIids = Set(
      a.iidOf(ColumnKey("T1", 2)), a.iidOf(ColumnKey("T2", 2)), a.iidOf(ColumnKey("T3", 1)))
    assert(cityIids.size == 1)
  }

  test("Fig 7 aligns to 3 integration IDs (Vaccine, Approver, Country)") {
    val a = matcher.align(PaperTables.fig7(spark))
    assert(a.names == Vector("Vaccine", "Approver", "Country"))
  }

  test("TID columns are excluded from matching") {
    val a = matcher.align(PaperTables.fig2(spark))
    assert(!a.iidOf.contains(ColumnKey("T1", 0)))
    assert(a.iidOf.contains(ColumnKey("T1", 1)))
  }

  test("dummy headers are matched through value overlap") {
    import spark.implicits._
    val a = Seq(("Berlin", "x"), ("Boston", "y"), ("Toronto", "z")).toDF("City", "Extra")
    val b = Seq(("Berlin", "1"), ("Boston", "2"), ("Toronto", "3")).toDF("col0", "col1")
    val al = matcher.align(Seq("A" -> a, "B" -> b))
    assert(al.iidOf(ColumnKey("A", 0)) == al.iidOf(ColumnKey("B", 0)))
    assert(al.iidOf(ColumnKey("A", 1)) != al.iidOf(ColumnKey("B", 1)))
  }

  test("blank cells are missing values, not shared evidence") {
    import spark.implicits._
    val a = Seq("", "x").toDF("col0")
    val b = Seq("  ", "y").toDF("col0")
    assert(matcher.align(Seq("A" -> a, "B" -> b)).numIids == 2)
  }

  test("columns with more than 1000 distinct values align the same under 1 and 8 shuffle partitions") {
    import spark.implicits._
    val n = 3000
    val a = (0 until n).map(i => (s"v$i", s"w$i")).toDF("col0", "col1")
    val b = (0 until n).reverse.map(i => s"v$i").toDF("col0").repartition(3)
    val c = (n / 2 until n + n / 2).map(i => s"v$i").toDF("col0")
    val tables = Seq("A" -> a, "B" -> b, "C" -> c)
    val key = "spark.sql.shuffle.partitions"
    val saved = spark.conf.get(key)
    val aligned =
      try Seq(1, 8).map { partitions =>
        spark.conf.set(key, partitions.toLong)
        matcher.align(tables)
      } finally spark.conf.set(key, saved)
    assert(aligned(0) == aligned(1))
    assert(aligned(0).iidOf(ColumnKey("A", 0)) == aligned(0).iidOf(ColumnKey("B", 0)))
  }

  test("two columns of the same table never share an integration ID") {
    import spark.implicits._
    // Both columns of A overlap with B's single column; the constraint must
    // keep A's columns apart.
    val a = Seq(("x", "y"), ("y", "x")).toDF("left", "right")
    val b = Seq(("x", "x"), ("y", "y")).toDF("left", "right")
    val al = matcher.align(Seq("A" -> a, "B" -> b))
    assert(al.iidOf(ColumnKey("A", 0)) != al.iidOf(ColumnKey("A", 1)))
    assert(al.iidOf(ColumnKey("B", 0)) != al.iidOf(ColumnKey("B", 1)))
  }

  test("coverage masks reflect per-table columns") {
    val a = matcher.align(PaperTables.fig7(spark))
    val v = a.iidOf(ColumnKey("T4", 1)) // Vaccine
    val ap = a.iidOf(ColumnKey("T4", 2)) // Approver
    assert((a.coverage("T4") & (1L << v)) != 0)
    assert((a.coverage("T4") & (1L << ap)) != 0)
    assert(a.coverage("T4") == ((1L << v) | (1L << ap)))
  }

  test("disjoint tables get disjoint integration IDs") {
    import spark.implicits._
    val a = Seq(("1", "2")).toDF("alpha", "beta")
    val b = Seq(("x9", "y9")).toDF("gamma", "delta")
    val al = matcher.align(Seq("A" -> a, "B" -> b))
    assert(al.numIids == 4)
  }

  test("display names stay unique (DataFrame column name invariant)") {
    val al = matcher.align(PaperTables.fig2(spark) ++ PaperTables.fig7(spark))
    assert(al.names.distinct.size == al.names.size)
  }

  test("deterministic across repeated runs") {
    val a1 = matcher.align(PaperTables.fig2(spark))
    val a2 = matcher.align(PaperTables.fig2(spark))
    assert(a1 == a2)
  }

  test("an alignment with more than 64 integration IDs is refused") {
    val e = intercept[IllegalArgumentException](Alignment(Map.empty, Vector.fill(65)("c")))
    assert(e.getMessage.contains("more than 64 integration IDs (65)"))
  }
}
