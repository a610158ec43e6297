package repro.core

import org.apache.spark.ml.linalg.{SQLDataTypes, Vectors}
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._
import scala.jdk.CollectionConverters._

/** Mean value vector of one column, over `nValues` cells. */
final case class ColumnMean(id: ColumnId, vec: Array[Double], nValues: Long)

/** Column-embedding stage (§3.1.1): a column's vector is the mean of its
  * cells' value vectors under the embedding model.
  *
  * One accumulator computes every such mean: a primitive `Array[Double]` sum
  * ([[SumFold]]) plus a count. Distributed, [[columnMeans]] runs it with
  * [[ColumnValues.foldColumns]] over melted (database, table, column, value)
  * rows: one shuffle-free Spark job whose partials the driver merges in
  * partition order. On the driver, [[embedValuesLocal]] runs the same
  * accumulator over a value batch (the sampled index and query paths).
  *
  * The model is closure-serialized to executors and keeps a JVM-wide token
  * cache (see [[HashNgramModel]]).
  */
object ColumnEmbedder {

  /** Running sum of value vectors. */
  private final class SumFold(model: EmbeddingModel) extends ColumnFold[Array[Double]] {
    def zero(): Array[Double] = new Array[Double](model.dim)
    def add(sum: Array[Double], value: String): Unit = VectorOps.addInPlace(sum, model.embedValue(value))
    def merge(sum: Array[Double], partial: Array[Double]): Unit = VectorOps.addInPlace(sum, partial)
  }

  /** The mean, in place; the zero vector when nothing was added. */
  private def mean(sum: Array[Double], n: Long): Array[Double] = {
    if (n > 0) VectorOps.scaleInPlace(sum, 1.0 / n)
    sum
  }

  /** Per-column mean vectors of melted (database, table, column, value)
    * rows, in order of each column's first partial.
    */
  def columnMeans(values: DataFrame, model: EmbeddingModel): Array[ColumnMean] =
    ColumnValues.foldColumns(values, new SumFold(model))
      .map(c => ColumnMean(c.id, mean(c.acc, c.nValues), c.nValues))

  /** [[columnMeans]] as a DataFrame (database, table, column, vec: ml.Vector,
    * nValues), computed eagerly.
    */
  def embedColumns(values: DataFrame, model: EmbeddingModel): DataFrame = {
    val rows = columnMeans(values, model).toSeq.map { m =>
      Row(m.id.database, m.id.table, m.id.column, Vectors.dense(m.vec), m.nValues)
    }
    values.sparkSession.createDataFrame(rows.asJava,
      StructType(Seq(
        StructField("database", StringType), StructField("table", StringType),
        StructField("column", StringType), StructField("vec", SQLDataTypes.VectorType),
        StructField("nValues", LongType, nullable = false))))
  }

  /** Driver-side mean of a small value batch — the sampled index and query
    * paths (§4.4), where shipping a Spark job per query would dwarf the work.
    */
  def embedValuesLocal(values: Iterable[String], model: EmbeddingModel): Array[Double] =
    mean(new SumFold(model).local(values), values.size)

  /** Mean vector of one column computed with a (timed) Spark scan — the
    * full-value query path whose load+inference cost Table 2 measures. An
    * empty column yields the zero vector.
    */
  def embedColumnSpark(id: ColumnId, table: DataFrame, model: EmbeddingModel,
                       sampleRows: Option[Int] = None): Array[Double] =
    columnMeans(ColumnValues.meltColumn(id, table, sampleRows), model)
      .headOption.fold(new Array[Double](model.dim))(_.vec)
}
