package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.core.{ColumnFold, ColumnValues, FoldedColumn}
import scala.util.hashing.MurmurHash3

/** MinHash signatures over column value sets — the syntactic profile both
  * Aurum and D3L's extent-overlap evidence use.
  *
  * One permutation h_i(x) = (a_i * x + b_i) mod p over murmur-hashed values;
  * a column's signature is the componentwise minimum, a primitive
  * `Array[Double]` accumulator. [[signatures]] folds every column with it in
  * one shuffle-free Spark job ([[ColumnValues.foldColumns]]), and
  * [[signatureLocal]] runs the same fold over a value batch on the driver.
  * Minima do not depend on order, so both give the same signature.
  */
final class MinHashProfiler(val numHashes: Int = 128, seed: Int = 77) extends ColumnFold[Array[Double]] {
  private val P: Long = 2147483647L // 2^31 - 1, Mersenne prime

  private val (coeffA, coeffB): (Array[Long], Array[Long]) = {
    val rnd = new scala.util.Random(seed)
    Array.fill(numHashes)((1L + rnd.nextInt(Int.MaxValue - 1).toLong, rnd.nextInt(Int.MaxValue).toLong)).unzip
  }

  private def base(value: String): Long =
    MurmurHash3.stringHash(if (value == null) "" else value, seed).toLong & 0x7fffffffL

  /** The i-th permutation of a base hash. */
  private def perm(i: Int, x: Long): Double = ((coeffA(i) * x + coeffB(i)) % P).toDouble

  /** Permuted hashes of one value. */
  def hashes(value: String): Array[Double] = {
    val out = new Array[Double](numHashes)
    val x   = base(value)
    var i = 0
    while (i < numHashes) { out(i) = perm(i, x); i += 1 }
    out
  }

  def zero(): Array[Double] = Array.fill(numHashes)(Double.MaxValue)

  def add(sig: Array[Double], value: String): Unit = {
    val x = base(value)
    var i = 0
    while (i < numHashes) {
      val h = perm(i, x)
      if (h < sig(i)) sig(i) = h
      i += 1
    }
  }

  def merge(sig: Array[Double], partial: Array[Double]): Unit = {
    var i = 0
    while (i < numHashes) { if (partial(i) < sig(i)) sig(i) = partial(i); i += 1 }
  }

  /** Per-column signatures of melted (database, table, column, value) rows. */
  def signatures(values: DataFrame): Array[FoldedColumn[Array[Double]]] =
    ColumnValues.foldColumns(values, this)

  /** Signature of a small value batch computed on the driver. */
  def signatureLocal(values: Iterable[String]): Array[Double] = local(values)

  /** Jaccard estimate: fraction of agreeing signature components. */
  def estimateJaccard(a: Array[Double], b: Array[Double]): Double = {
    var eq = 0; var i = 0
    while (i < a.length) { if (a(i) == b(i)) eq += 1; i += 1 }
    eq.toDouble / a.length
  }
}
