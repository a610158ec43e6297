package repro.baselines

import org.apache.spark.ml.linalg.{Vector, Vectors}
import org.apache.spark.ml.stat.Summarizer
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import scala.util.hashing.MurmurHash3

/** MinHash signatures over column value sets — the syntactic profile both
  * Aurum and D3L's extent-overlap evidence use.
  *
  * One permutation h_i(x) = (a_i * x + b_i) mod p over murmur-hashed values;
  * a column's signature is the componentwise minimum, computed distributed:
  * a UDF maps each cell to its 128 permuted hashes as an ml.Vector and Spark
  * ML `Summarizer.min` takes the per-column minima with map-side partial
  * aggregation.
  */
final class MinHashProfiler(val numHashes: Int = 128, seed: Int = 77) extends Serializable {
  private val P: Long = 2147483647L // 2^31 - 1, Mersenne prime

  private val coeffs: Array[(Long, Long)] = {
    val rnd = new scala.util.Random(seed)
    Array.fill(numHashes)((1L + rnd.nextInt(Int.MaxValue - 1).toLong, rnd.nextInt(Int.MaxValue).toLong))
  }

  /** Permuted hashes of one value. */
  def hashes(value: String): Array[Double] = {
    val x   = (MurmurHash3.stringHash(if (value == null) "" else value, seed).toLong & 0x7fffffffL)
    val out = new Array[Double](numHashes)
    var i = 0
    while (i < numHashes) {
      val (a, b) = coeffs(i)
      out(i) = ((a * x + b) % P).toDouble
      i += 1
    }
    out
  }

  /** Per-column MinHash signatures of a melted values DataFrame.
    * Output: (database, table, column, sig: ml.Vector, nValues).
    */
  def signatures(values: DataFrame): DataFrame = {
    val self = this
    val hashUdf = udf { (v: String) => Vectors.dense(self.hashes(v)) }
    values
      .withColumn("__mh", hashUdf(col("value")))
      .groupBy("database", "table", "column")
      .agg(Summarizer.min(col("__mh")).as("sig"), count(lit(1)).as("nValues"))
  }

  /** Jaccard estimate: fraction of agreeing signature components. */
  def estimateJaccard(a: Array[Double], b: Array[Double]): Double = {
    var eq = 0; var i = 0
    while (i < a.length) { if (a(i) == b(i)) eq += 1; i += 1 }
    eq.toDouble / a.length
  }

  /** Signature of a small value batch computed on the driver. */
  def signatureLocal(values: Iterable[String]): Array[Double] = {
    val sig = Array.fill(numHashes)(Double.MaxValue)
    values.foreach { v =>
      val h = hashes(v)
      var i = 0
      while (i < numHashes) { if (h(i) < sig(i)) sig(i) = h(i); i += 1 }
    }
    sig
  }
}

object MinHashProfiler {
  /** Convenience accessor for rows of [[MinHashProfiler.signatures]]. */
  def sigOf(row: org.apache.spark.sql.Row): Array[Double] =
    row.getAs[Vector]("sig").toArray
}
