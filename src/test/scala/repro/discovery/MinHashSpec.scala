package repro.discovery

import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.core.AlignedTuples

class MinHashSpec extends SparkSpec {

  import spark.implicits._

  test("melt emits one row per distinct (column, value)") {
    val df = Seq(("a", "x"), ("a", "y"), ("b", "x")).toDF("c1", "c2")
    val m = AlignedTuples.melt("t", df).collect()
    val c1 = m.filter(_.getAs[Int]("colIdx") == 0).map(_.getAs[String]("value")).toSet
    val c2 = m.filter(_.getAs[Int]("colIdx") == 1).map(_.getAs[String]("value")).toSet
    assert(c1 == Set("a", "b") && c2 == Set("x", "y"))
  }

  test("melt drops nulls and empty strings") {
    val df = Seq(("a", null), ("", "y")).toDF("c1", "c2")
    val m = AlignedTuples.melt("t", df).collect()
    assert(m.map(_.getAs[String]("value")).toSet == Set("a", "y"))
  }

  test("signatures carry exact distinct counts") {
    val df = Seq.tabulate(100)(i => (s"v${i % 40}", s"w$i")).toDF("c1", "c2")
    val sigs = MinHash.index(spark, Seq(("t", df))).collect()
    val bySize = sigs.map(r => r.getAs[Int]("colIdx") -> r.getAs[Long]("size")).toMap
    assert(bySize == Map(0 -> 40L, 1 -> 100L))
  }

  test("identical value sets produce identical signatures") {
    val a = Seq("x", "y", "z").toDF("c")
    val b = Seq("z", "y", "x", "x").toDF("d")
    val sigs = MinHash.index(spark, Seq(("a", a), ("b", b))).collect()
    val byTable = sigs.map(r => r.getAs[String]("table") -> r.getSeq[Long](r.fieldIndex("sig")).toVector).toMap
    assert(byTable("a") == byTable("b"))
  }

  test("jaccard estimate tracks true overlap within tolerance") {
    val n = 500
    val a = (0 until n).map(i => s"v$i").toDF("c")
    val b = (n / 2 until n + n / 2).map(i => s"v$i").toDF("c") // true J = 1/3
    val sigs = MinHash.index(spark, Seq(("a", a), ("b", b))).collect()
    val sa = sigs.find(_.getString(0) == "a").map(r => r.getSeq[Long](r.fieldIndex("sig")).toVector).get
    val sb = sigs.find(_.getString(0) == "b").map(r => r.getSeq[Long](r.fieldIndex("sig")).toVector).get
    val est = sa.zip(sb).count { case (x, y) => x == y }.toDouble / MinHash.NumPerms
    assert(math.abs(est - 1.0 / 3.0) < 0.15, s"estimate $est too far from 1/3")
  }

  test("disjoint sets estimate ~zero similarity") {
    val a = (0 until 200).map(i => s"a$i").toDF("c")
    val b = (0 until 200).map(i => s"b$i").toDF("c")
    val sigs = MinHash.index(spark, Seq(("a", a), ("b", b))).collect()
    val sa = sigs.find(_.getString(0) == "a").map(r => r.getSeq[Long](r.fieldIndex("sig")).toVector).get
    val sb = sigs.find(_.getString(0) == "b").map(r => r.getSeq[Long](r.fieldIndex("sig")).toVector).get
    val est = sa.zip(sb).count { case (x, y) => x == y }.toDouble / MinHash.NumPerms
    assert(est < 0.1)
  }
}
