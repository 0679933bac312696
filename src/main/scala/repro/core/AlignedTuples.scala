package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** The aligned-tuple layout: its schema, the outer union of an integration
  * set into integration-ID space, and the merge of two tuples.
  *
  * Every input tuple becomes a row of the universal schema:
  *
  *   - `vals`    array<string> of length `numIids` (null = no value);
  *   - `covered` Long bitmask of the integration IDs the source table has
  *               a column for — a null inside the mask is a *missing* null
  *               (± in the paper), a null outside it is a *produced* null
  *               (⊥) introduced by padding;
  *   - `tabs`    sorted source-table names (used to enforce FD's
  *               one-tuple-per-table rule);
  *   - `tids`    sorted provenance tuple IDs. If the input has a `TID`
  *               column it is used verbatim (the paper's figures name
  *               tuples t1..t16); otherwise IDs are `<table>#<row>`.
  *
  * A tuple is identified by its `(vals, tids)` arrays themselves: Spark
  * groups, deduplicates and equi-joins `array<string>` element-wise, with a
  * null element equal to a null element.
  */
object AlignedTuples {

  val ValsCol = "vals"
  val CoveredCol = "covered"
  val TabsCol = "tabs"
  val TidsCol = "tids"

  val schema: StructType = StructType(Seq(
    StructField(ValsCol, ArrayType(StringType), nullable = false),
    StructField(CoveredCol, LongType, nullable = false),
    StructField(TabsCol, ArrayType(StringType), nullable = false),
    StructField(TidsCol, ArrayType(StringType), nullable = false),
  ))

  /** `df` with every column renamed to `p` + its name. */
  def prefixed(df: DataFrame, p: String): DataFrame =
    df.select(df.columns.map(c => col(c).as(p + c)): _*)

  /** The aligned tuple merging the `a_` and `b_` tuples of a joined row:
    * values coalesced attribute-wise, coverage ORed, tables and TIDs
    * unioned and sorted. A side whose columns are all null, such as the
    * unmatched side of an outer join, contributes nothing.
    */
  def merged: Seq[Column] = {
    def union(a: Column, b: Column) = array_sort(array_union(a, b))
    Seq[(String, (Column, Column) => Column)](
      ValsCol -> ((a, b) => zip_with(a, b, coalesce(_, _))),
      CoveredCol -> (_ bitwiseOR _),
      TabsCol -> union,
      TidsCol -> union,
    ).map { case (c, f) =>
      val (a, b) = (col("a_" + c), col("b_" + c))
      coalesce(f(a, b), a, b).as(c)
    }
  }

  /** The one rule for reading a raw table cell: its trimmed string, with
    * `""` as a missing null (open data CSVs write missing values as blanks).
    */
  def cell(c: Column): Column = nullif(trim(c.cast("string")), lit(""))

  /** One `(table, colIdx, colName, value)` row per distinct cell value of `df`. */
  def melt(table: String, df: DataFrame): DataFrame = {
    val names = df.columns
    df.select(posexplode(array(names.map(c => cell(col(c))): _*)).as(Seq("colIdx", "value")))
      .where(col("value").isNotNull)
      .distinct()
      .select(
        lit(table).as("table"),
        col("colIdx"),
        element_at(array(names.map(lit(_)): _*), col("colIdx") + 1).as("colName"),
        col("value"),
      )
  }

  /** Build the outer union for one table. */
  def forTable(table: String, df: DataFrame, alignment: Alignment): DataFrame = {
    val cols = df.columns
    val tidExpr: Column = cols.find(SchemaMatcher.isTid) match {
      case Some(tidCol) => col(tidCol).cast("string")
      case None =>
        concat(lit(table + "#"), monotonically_increasing_id().cast("string"))
    }
    val byIid: Map[Int, String] = alignment.iidOf.collect {
      case (ColumnKey(t, idx), iid) if t == table => iid -> cols(idx)
    }
    val vals = array((0 until alignment.numIids).map { iid =>
      byIid.get(iid).fold(lit(null: String).cast("string"))(c => cell(col(c)))
    }: _*)
    df.select(
      vals.as(ValsCol),
      lit(alignment.coverage(table)).as(CoveredCol),
      array(lit(table)).as(TabsCol),
      array(tidExpr).as(TidsCol),
    ).where(exists(col(ValsCol), v => v.isNotNull)) // all-null rows carry no fact
  }

  /** Outer union of the whole integration set. */
  def build(tables: Seq[(String, DataFrame)], alignment: Alignment): DataFrame =
    tables.map { case (t, df) => forTable(t, df, alignment) }.reduce(_.unionAll(_))
}
