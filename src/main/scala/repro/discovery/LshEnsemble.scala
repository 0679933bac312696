package repro.discovery

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.lake.DataLake

/** LSH-Ensemble-style joinable table search [15].
  *
  * Offline, every lake column gets a MinHash signature and a distinct
  * count; candidates are split into 4 partitions by domain size (the
  * "ensemble"). A query column's containment in a candidate is estimated
  * from the Jaccard estimate ĵ via the standard conversion
  * ĉ = ĵ·(|Q|+|X|) / ((1+ĵ)·|Q|); partitions whose maximum achievable
  * containment (maxSize/|Q|) is below the threshold 0.3 are pruned before
  * scoring. The banding index of the original is elided — the lake has
  * O(100) columns, so an exhaustive scan of pruned partitions is exact
  * and cheap.
  */
final class LshEnsemble(spark: SparkSession, lake: DataLake) extends Discoverer {

  private val Threshold = 0.3
  private val NumPartitions = 4

  override def name: String = "lsh-ensemble"

  /** Offline index: (table, colIdx, colName, size, sig, part). */
  lazy val index: DataFrame = {
    val sigs = MinHash.index(spark, lake.tables)
    sigs.withColumn("part", ntile(NumPartitions).over(
      org.apache.spark.sql.expressions.Window.orderBy(col("size"))))
      .cache()
  }

  /** Upper bound of candidate set size per partition (driver-side). */
  private lazy val partMax: Map[Int, Long] =
    index.groupBy("part").agg(max("size").as("m")).collect()
      .map(r => r.getInt(0) -> r.getLong(1)).toMap

  override def discover(query: DataFrame, queryColumn: Option[String],
                        k: Int): Seq[ScoredTable] = {
    val qc = queryColumn.getOrElse(throw new IllegalArgumentException(
      "joinable search needs a marked query column"))
    val qdf = query.select(col(qc))
    val qsigRow = MinHash.index(spark, Seq(("query", qdf))).collect().headOption
      .getOrElse(return Seq.empty) // empty query column
    val qSize = qsigRow.getAs[Long]("size")
    val qSig = qsigRow.getSeq[Long](qsigRow.fieldIndex("sig")).toVector

    val keepParts = partMax.collect {
      case (p, mx) if mx.toDouble / qSize.toDouble >= Threshold => p
    }.toSeq
    if (keepParts.isEmpty) return Seq.empty

    val matches = (0 until MinHash.NumPerms)
      .map(i => when(col("sig").getItem(i) === lit(qSig(i)), 1).otherwise(0))
      .reduce(_ + _)
    val j = matches.cast("double") / lit(MinHash.NumPerms.toDouble)
    val containment = least(lit(1.0),
      j * (lit(qSize.toDouble) + col("size")) / ((j + 1.0) * lit(qSize.toDouble)))

    index
      .where(col("part").isin(keepParts: _*))
      .select(col("table"), containment.as("c"))
      .groupBy("table").agg(max("c").as("score"))
      .where(col("score") >= Threshold)
      .collect()
      .map(r => ScoredTable(r.getString(0), r.getDouble(1)))
      .sortBy(st => (-st.score, st.table))
      .take(k)
      .toSeq
  }
}
