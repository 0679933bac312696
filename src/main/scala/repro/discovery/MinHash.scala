package repro.discovery

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.AlignedTuples

/** MinHash signatures of table columns, computed with Spark aggregations.
  *
  * A column's signature is `min(xxhash64(value ⊕ i))` for i < numPerms over
  * its distinct cell values, the rows of `AlignedTuples.melt` — the same
  * rows `HolisticMatcher` takes its bottom-k value samples from, in one
  * query over all tables. Query signatures are computed through the
  * same code path, so the estimator never depends on reimplementing
  * Spark's hash on the driver.
  */
object MinHash {

  val NumPerms = 64

  /** Signature per (table, colIdx): distinct count + minhash array. */
  def signatures(melted: DataFrame): DataFrame = {
    val mins = (0 until NumPerms).map { i =>
      min(xxhash64(concat(col("value"), lit(s"§$i")))).as(s"h$i")
    }
    melted
      .groupBy(col("table"), col("colIdx"))
      .agg(first(col("colName")).as("colName"),
           (count(lit(1)) +: mins): _*)
      .select(col("table"), col("colIdx"), col("colName"),
              col("count(1)").as("size"),
              array((0 until NumPerms).map(i => col(s"h$i")): _*).as("sig"))
  }

  /** Signatures for every column of every table in `tables`. */
  def index(spark: SparkSession, tables: Seq[(String, DataFrame)]): DataFrame =
    tables.map { case (n, df) => AlignedTuples.melt(n, df) }
      .reduce(_ unionAll _)
      .transform(signatures)
}
