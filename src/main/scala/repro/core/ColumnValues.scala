package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Wide-to-long "melt" of a table into per-column value rows.
  *
  * Profiling in WarpGate (and both baselines) is column-oriented: every
  * downstream stage (sampling, embedding, MinHash) consumes a stream of
  * (database, table, column, value) rows. Implemented with pure Catalyst
  * (`explode` over an array of structs) so it benefits from whole-stage
  * codegen and never materializes per-column collections on the driver.
  */
object ColumnValues {

  /** Melt `df` into (database, table, column, value:String) rows. Every cell
    * is cast to string — the embedding models and MinHash operate on the
    * surface representation, like profiling data pulled out of a CDW.
    */
  def melt(database: String, table: String, df: DataFrame): DataFrame = {
    val structs = df.columns.map { c =>
      struct(lit(c).as("column"), df.col(quoted(c)).cast("string").as("value"))
    }
    df.select(explode(array(structs.toIndexedSeq: _*)).as("cv"))
      .select(
        lit(database).as("database"),
        lit(table).as("table"),
        col("cv.column").as("column"),
        col("cv.value").as("value"),
      )
  }

  /** Melt only one column of a table (the query-time "data loading" step of
    * the search pipeline: scan exactly the query column).
    */
  def meltColumn(id: ColumnId, df: DataFrame, sampleRows: Option[Int] = None): DataFrame = {
    val src = sampleRows.fold(df)(n => df.limit(n))
    src.select(
      lit(id.database).as("database"),
      lit(id.table).as("table"),
      lit(id.column).as("column"),
      src.col(quoted(id.column)).cast("string").as("value"),
    )
  }

  /** A column name as a backtick-quoted identifier, so names containing `.`
    * resolve to the column itself rather than a struct field.
    */
  private def quoted(name: String): String = "`" + name.replace("`", "``") + "`"
}
