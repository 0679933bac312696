package repro.core

import repro.SparkSpec

/** Differential testing: the Spark FD must agree with the independent
  * driver-local brute-force enumeration on randomized instances.
  */
class FdPropertiesSpec extends SparkSpec {

  private def check(seed: Long, attrs: Option[Int] = None): Unit = {
    val in = FdFixtures.randomInstance(seed, attrs = attrs)
    if (in.nonEmpty) {
      val m = in.head.vals.size
      val expected = FdFixtures.canon(NaiveFD.bruteForce(in))
      val got = FdFixtures.canon(FdFixtures.fromDf(
        FullDisjunction.integrateAligned(FdFixtures.toDf(spark, in), m)))
      assert(got == expected, s"seed=$seed\ninput=${in.mkString("\n")}")
    }
  }

  for (batch <- 0 until 5) {
    test(s"Spark FD equals brute-force reference on random instances (batch $batch)") {
      for (seed <- (batch * 6 + 1) to (batch * 6 + 6)) check(seed * 1000 + 17)
    }
  }

  test("Spark FD equals reference on instances with many missing nulls") {
    // Seeds chosen so null probability shows up heavily in small domains.
    for (seed <- Seq(31337L, 4242L, 999L, 123456L)) check(seed)
  }

  test("Spark FD equals reference on wide schemas (8–16 attributes)") {
    for (m <- 8 to 16) check(m * 7919L, attrs = Some(m))
  }

  test("Spark FD equals reference under 1 and 8 shuffle partitions") {
    val key = "spark.sql.shuffle.partitions"
    val saved = spark.conf.get(key)
    try {
      for (partitions <- Seq(1, 8)) {
        spark.conf.set(key, partitions.toLong)
        for (seed <- 1 to 6) check(seed * 1000 + 17)
      }
    } finally spark.conf.set(key, saved)
  }

  test("Spark FD is deterministic across runs") {
    val in = FdFixtures.randomInstance(777)
    val m = in.head.vals.size
    val r1 = FdFixtures.canon(FdFixtures.fromDf(
      FullDisjunction.integrateAligned(FdFixtures.toDf(spark, in), m)))
    val r2 = FdFixtures.canon(FdFixtures.fromDf(
      FullDisjunction.integrateAligned(FdFixtures.toDf(spark, in), m)))
    assert(r1 == r2)
  }
}
