package repro.core

import org.apache.spark.ml.linalg.Vector
import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import scala.util.hashing.MurmurHash3

/** SimHash LSH configuration: `bands` bands of `rowsPerBand` hyperplane bits.
  *
  * With the default 24x8 = 192 planes, a pair at cosine 0.7 (the paper's
  * index threshold; per-bit agreement p = 1 - arccos(0.7)/pi ~ 0.747) collides
  * in at least one band with probability 1-(1-p^8)^24 ~ 0.91, while a pair at
  * cosine 0.2 collides with probability ~ 0.22 — false candidates only cost
  * re-ranking time because exact cosine verification follows the probe.
  */
final case class LshConfig(bands: Int = 24, rowsPerBand: Int = 8, seed: Int = 1234) {
  require(rowsPerBand <= 30, "band hashes are packed into Int bits")
  def bits: Int = bands * rowsPerBand
}

/** Random-hyperplane (SimHash / Charikar) LSH over column embeddings
  * (§3.1.2). Hyperplanes are deterministic in (seed, dim) so index and query
  * sides always agree, across JVMs and executors.
  */
final class SimHashLsh(val dim: Int, val cfg: LshConfig) extends Serializable {

  /** Gaussian hyperplane normals via Box-Muller over splitmix64 streams —
    * rotation-invariant directions, which the 1 - theta/pi collision law
    * assumes.
    */
  val planes: Array[Array[Double]] = {
    val out = Array.ofDim[Double](cfg.bits, dim)
    var p = 0
    while (p < cfg.bits) {
      var state = (MurmurHash3.productHash((cfg.seed, p, dim)).toLong << 17) ^ 0x632be59bd9b4e019L
      def next(): Double = {
        state += 0x9e3779b97f4a7c15L
        var z = state
        z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
        z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
        z = z ^ (z >>> 31)
        // uniform in (0,1]
        ((z >>> 11).toDouble + 1.0) / 9007199254740993.0
      }
      var j = 0
      while (j < dim) {
        val u1 = next(); val u2 = next()
        out(p)(j) = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.Pi * u2)
        j += 1
      }
      p += 1
    }
    out
  }

  /** Raw sign bits of a vector against all planes. */
  def signatureBits(vec: Array[Double]): Array[Boolean] = {
    val out = new Array[Boolean](cfg.bits)
    var p = 0
    while (p < cfg.bits) { out(p) = VectorOps.dot(planes(p), vec) >= 0.0; p += 1 }
    out
  }

  /** Per-band packed hashes — the bucket keys of the index. */
  def bandHashes(vec: Array[Double]): Array[Int] = {
    val bits = signatureBits(vec)
    val out  = new Array[Int](cfg.bands)
    var b = 0
    while (b < cfg.bands) {
      var h = 0
      var r = 0
      while (r < cfg.rowsPerBand) {
        h = (h << 1) | (if (bits(b * cfg.rowsPerBand + r)) 1 else 0)
        r += 1
      }
      out(b) = h
      b += 1
    }
    out
  }

  /** Column expression computing band hashes of an ml.Vector column. */
  def bandHashesUdf: Column => Column = {
    val self = this
    val f = udf { (v: Vector) => self.bandHashes(v.toArray) }
    (c: Column) => f(c)
  }
}
