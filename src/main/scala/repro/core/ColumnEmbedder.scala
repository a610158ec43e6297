package repro.core

import org.apache.spark.ml.linalg.{SQLDataTypes, Vectors}
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Mean value vector of one column, over `nValues` cells. */
final case class ColumnMean(id: ColumnId, vec: Array[Double], nValues: Long)

/** Column-embedding stage (§3.1.1): a column's vector is the mean of its
  * cells' value vectors under the embedding model.
  *
  * One accumulator computes every such mean: a primitive `Array[Double]` sum
  * plus a count. Distributed, [[columnMeans]] runs it as a `mapPartitions`
  * over melted (database, table, column, value) rows — one partial per
  * column per partition — and the driver merges the partials in partition
  * order, so a vector does not depend on task scheduling. That is one Spark
  * job with no shuffle. On the driver, [[embedValuesLocal]] runs the same
  * accumulator over a value batch (the sampled index and query paths).
  *
  * The model is closure-serialized to executors and keeps a JVM-wide token
  * cache (see [[HashNgramModel]]).
  */
object ColumnEmbedder {

  /** Running sum of value vectors and their count. */
  private final class MeanAcc(dim: Int) {
    val sum = new Array[Double](dim)
    var n   = 0L
    def add(value: String, model: EmbeddingModel): Unit = {
      VectorOps.addInPlace(sum, model.embedValue(value)); n += 1
    }
    def merge(sum2: Array[Double], n2: Long): Unit = { VectorOps.addInPlace(sum, sum2); n += n2 }
    /** The mean, in place; the zero vector when nothing was added. */
    def mean: Array[Double] = { if (n > 0) VectorOps.scaleInPlace(sum, 1.0 / n); sum }
  }

  /** Per-column mean vectors of melted (database, table, column, value)
    * rows, in order of each column's first partial.
    */
  def columnMeans(values: DataFrame, model: EmbeddingModel): Array[ColumnMean] = {
    val dim = model.dim
    val partials = values.select("database", "table", "column", "value").rdd
      .mapPartitions { rows =>
        val accs = mutable.LinkedHashMap[ColumnId, MeanAcc]()
        rows.foreach { r =>
          val id = ColumnId(r.getString(0), r.getString(1), r.getString(2))
          accs.getOrElseUpdate(id, new MeanAcc(dim)).add(r.getString(3), model)
        }
        accs.iterator.map { case (id, a) => (id, a.sum, a.n) }
      }
      .collect()
    val merged = mutable.LinkedHashMap[ColumnId, MeanAcc]()
    partials.foreach { case (id, sum, n) => merged.getOrElseUpdate(id, new MeanAcc(dim)).merge(sum, n) }
    merged.iterator.map { case (id, a) => ColumnMean(id, a.mean, a.n) }.toArray
  }

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
  def embedValuesLocal(values: Iterable[String], model: EmbeddingModel): Array[Double] = {
    val acc = new MeanAcc(model.dim)
    values.foreach(acc.add(_, model))
    acc.mean
  }

  /** Mean vector of one column computed with a (timed) Spark scan — the
    * full-value query path whose load+inference cost Table 2 measures. An
    * empty column yields the zero vector.
    */
  def embedColumnSpark(id: ColumnId, table: DataFrame, model: EmbeddingModel,
                       sampleRows: Option[Int] = None): Array[Double] =
    columnMeans(ColumnValues.meltColumn(id, table, sampleRows), model)
      .headOption.fold(new Array[Double](model.dim))(_.vec)
}
