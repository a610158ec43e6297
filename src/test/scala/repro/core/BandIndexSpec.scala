package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable

class BandIndexSpec extends AnyFunSuite {

  private def candidates(ix: BandIndex, q: Array[Int]): Seq[Int] = {
    val out = mutable.ArrayBuffer[Int]()
    ix.foreachCandidate(q)(out += _)
    out.toSeq
  }

  // three bands per column
  private val ix = new BandIndex(Array(
    Array(1, 2, 3),
    Array(1, 9, 3),
    Array(7, 2, 8),
    Array(4, 5, 6),
  ))

  test("yields every column sharing a bucket, once, band by band") {
    assert(candidates(ix, Array(1, 2, 3)) == Seq(0, 1, 2))
  }

  test("a hash matches only in its own band") {
    assert(candidates(ix, Array(2, 1, 9)).isEmpty)
    assert(candidates(ix, Array(0, 0, 6)) == Seq(3))
  }

  test("no shared bucket yields nothing") {
    assert(candidates(new BandIndex(Array.empty), Array(1, 2, 3)).isEmpty)
  }
}
