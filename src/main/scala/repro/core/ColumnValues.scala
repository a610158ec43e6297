package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import scala.collection.mutable

/** How one column's cell values fold into a mutable accumulator `A`: a fresh
  * `zero`, `add` of one cell, and `merge` of another partial into it.
  */
trait ColumnFold[A] extends Serializable {
  def zero(): A
  def add(acc: A, value: String): Unit
  def merge(acc: A, partial: A): Unit

  /** The fold of a value batch on the driver. */
  final def local(values: Iterable[String]): A = {
    val acc = zero()
    values.foreach(add(acc, _))
    acc
  }
}

/** A column's folded accumulator, over `nValues` cells. */
final case class FoldedColumn[A](id: ColumnId, acc: A, nValues: Long)

/** Wide-to-long "melt" of a table into per-column value rows, and the one
  * per-column fold over them ([[foldColumns]]).
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

  /** Fold every column of melted (database, table, column, value) rows with
    * `fold`: a `mapPartitions` keeps one partial per column per partition,
    * and the driver merges the partials into a fresh `zero` in partition
    * order, so the result does not depend on task scheduling. One Spark job,
    * no shuffle. Columns come back in order of their first partial.
    */
  def foldColumns[A](values: DataFrame, fold: ColumnFold[A]): Array[FoldedColumn[A]] = {
    val partials = values.select("database", "table", "column", "value").rdd
      .mapPartitions { rows =>
        val accs = mutable.LinkedHashMap[ColumnId, Partial[A]]()
        rows.foreach { r =>
          val id = ColumnId(r.getString(0), r.getString(1), r.getString(2))
          accs.getOrElseUpdate(id, new Partial(fold.zero())).add(fold, r.getString(3))
        }
        accs.iterator
      }
      .collect()
    val merged = mutable.LinkedHashMap[ColumnId, Partial[A]]()
    partials.foreach { case (id, p) => merged.getOrElseUpdate(id, new Partial(fold.zero())).merge(fold, p) }
    merged.iterator.map { case (id, p) => FoldedColumn(id, p.acc, p.n) }.toArray
  }

  /** One column's accumulator and its cell count. */
  private final class Partial[A](val acc: A) extends Serializable {
    var n = 0L
    def add(fold: ColumnFold[A], value: String): Unit = { fold.add(acc, value); n += 1 }
    def merge(fold: ColumnFold[A], p: Partial[A]): Unit = { fold.merge(acc, p.acc); n += p.n }
  }

  /** A column name as a backtick-quoted identifier, so names containing `.`
    * resolve to the column itself rather than a struct field.
    */
  private def quoted(name: String): String = "`" + name.replace("`", "``") + "`"
}
