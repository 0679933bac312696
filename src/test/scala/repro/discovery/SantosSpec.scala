package repro.discovery

import repro.SparkSpec
import repro.lake.LakeGen

class SantosSpec extends SparkSpec {

  private lazy val gen = LakeGen.generate(spark, sf = 0.01, seed = 7)
  private lazy val santos = new Santos(gen.lake, gen.kb)

  test("unionable search ranks sibling cases partitions above everything else") {
    val query = gen.lake.table("cases_p0")
    val hits = santos.discover(query, None, k = 20)
    val expected = gen.truth.unionable("cases_p0")
    val topNames = hits.filterNot(_.table == "cases_p0")
      .take(expected.size).map(_.table).toSet
    assert(expected.intersect(topNames).size >= expected.size - 1,
      s"top hits $topNames miss most of $expected")
  }

  test("noise tables score zero for a semantic query") {
    val query = gen.lake.table("cases_p0")
    val hits = santos.discover(query, None, k = 50)
    assert(!hits.exists(_.table.startsWith("noise")), hits.toString)
  }

  test("intent column restricts relationships but keeps sibling partitions") {
    val query = gen.lake.table("cases_p0")
    val cityCol = query.columns(0)
    val hits = santos.discover(query, Some(cityCol), k = 20).map(_.table).toSet
    assert(gen.truth.unionable("cases_p0").intersect(hits).nonEmpty)
  }

  test("column types recognize cities, countries and percents") {
    val types = santos.columnTypes(gen.lake.table("cases_p0"))
    assert(types(0).contains("city"))
    assert(types(1).contains("country"))
    assert(types(4).contains("percent"))
  }

  test("vaccine fragment tables are typed through the KB") {
    val types = santos.columnTypes(gen.lake.table("vac_frag0_a"))
    assert(types(0).contains("vaccine"))
    assert(types(1).contains("agency"))
  }

  test("blank cells do not count against a column's type") {
    import spark.implicits._
    val df = Seq("Berlin", "Boston", "  ", "  ", "  ", "  ").toDF("c")
    assert(santos.columnTypes(df) == Vector(Some("city")))
  }

  test("scores are deterministic") {
    val query = gen.lake.table("cases_p1")
    val h1 = santos.discover(query, None, 10)
    val h2 = santos.discover(query, None, 10)
    assert(h1 == h2)
  }
}
