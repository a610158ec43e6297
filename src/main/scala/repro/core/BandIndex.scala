package repro.core

import scala.collection.mutable

/** Banded LSH buckets over column indices, held on the driver: bucket
  * (band b, hash h) holds every column `i` with `bandHashes(i)(b) == h`.
  * WarpGate probes it with SimHash band hashes, Aurum with MinHash band
  * hashes.
  */
final class BandIndex(bandHashes: Array[Array[Int]]) extends Serializable {

  private val buckets: mutable.LongMap[Array[Int]] = {
    val m = new mutable.LongMap[mutable.ArrayBuilder.ofInt]()
    var i = 0
    while (i < bandHashes.length) {
      var b = 0
      while (b < bandHashes(i).length) {
        m.getOrElseUpdate(bucketKey(b, bandHashes(i)(b)), new mutable.ArrayBuilder.ofInt) += i
        b += 1
      }
      i += 1
    }
    m.mapValuesNow(_.result())
  }

  private def bucketKey(band: Int, hash: Int): Long = (band.toLong << 32) | (hash.toLong & 0xffffffffL)

  /** Calls `f` once for each column sharing at least one bucket with the
    * query band hashes `qHashes`, in order of first sight: band by band, and
    * within a bucket by column index.
    */
  def foreachCandidate(qHashes: Array[Int])(f: Int => Unit): Unit = {
    val seen = new java.util.BitSet(bandHashes.length)
    var b = 0
    while (b < qHashes.length) {
      val ids = buckets.getOrNull(bucketKey(b, qHashes(b)))
      var j = 0
      while (ids != null && j < ids.length) {
        val i = ids(j)
        if (!seen.get(i)) { seen.set(i); f(i) }
        j += 1
      }
      b += 1
    }
  }
}
