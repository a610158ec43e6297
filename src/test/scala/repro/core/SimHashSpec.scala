package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.PropHelpers
import scala.util.Random

class SimHashSpec extends AnyFunSuite with PropHelpers {

  private val dim = 32
  private val lsh = new SimHashLsh(dim, LshConfig(bands = 24, rowsPerBand = 8))

  test("config validates rowsPerBand bound") {
    intercept[IllegalArgumentException](LshConfig(bands = 4, rowsPerBand = 31))
  }

  test("bits equals bands * rowsPerBand") {
    assert(LshConfig(24, 8).bits == 192)
  }

  test("planes are deterministic across instances") {
    val other = new SimHashLsh(dim, LshConfig(bands = 24, rowsPerBand = 8))
    assert(lsh.planes.map(_.toSeq).toSeq == other.planes.map(_.toSeq).toSeq)
  }

  test("different seeds give different planes") {
    val other = new SimHashLsh(dim, LshConfig(seed = 999))
    assert(lsh.planes.map(_.toSeq).toSeq != other.planes.map(_.toSeq).toSeq)
  }

  test("plane components are roughly standard gaussian") {
    val all = lsh.planes.flatten
    val mean = all.sum / all.length
    val std  = math.sqrt(all.map(x => (x - mean) * (x - mean)).sum / all.length)
    assertApprox(mean, 0.0, 0.05, "plane mean")
    assertApprox(std, 1.0, 0.05, "plane std")
  }

  test("identical vectors get identical signatures and band hashes") {
    forAllVectors(dim, n = 20) { v =>
      assert(lsh.signatureBits(v).toSeq == lsh.signatureBits(v.clone()).toSeq)
      assert(lsh.bandHashes(v).toSeq == lsh.bandHashes(v.clone()).toSeq)
    }
  }

  test("scaling a vector does not change its signature") {
    forAllVectors(dim, n = 20) { v =>
      assert(lsh.signatureBits(v).toSeq == lsh.signatureBits(v.map(_ * 7.5)).toSeq)
    }
  }

  test("opposite vectors flip every bit") {
    forAllVectors(dim, n = 10) { v =>
      val a = lsh.signatureBits(v)
      val b = lsh.signatureBits(v.map(-_))
      assert(a.zip(b).forall { case (x, y) => x != y })
    }
  }

  test("band hashes have the expected count and bit width") {
    forAllVectors(dim, n = 10) { v =>
      val hs = lsh.bandHashes(v)
      assert(hs.length == 24)
      assert(hs.forall(h => h >= 0 && h < 256))
    }
  }

  test("bit agreement approximates 1 - theta/pi (Charikar bound)") {
    // For pairs at a controlled angle, the fraction of agreeing sign bits
    // must converge to 1 - theta/pi. Use a high-resolution LSH for tighter
    // statistics.
    val fine = new SimHashLsh(dim, LshConfig(bands = 125, rowsPerBand = 8)) // 1000 bits
    val rnd  = new Random(7)
    Seq(0.9, 0.7, 0.5, 0.2).foreach { target =>
      var agree = 0.0; var trials = 0
      (0 until 30).foreach { _ =>
        val a = Array.fill(dim)(rnd.nextGaussian())
        // construct b at exactly the target cosine to a
        val na = VectorOps.normalized(a)
        val r  = Array.fill(dim)(rnd.nextGaussian())
        val proj = VectorOps.dot(r, na)
        val perp = VectorOps.normalized(r.zip(na).map { case (x, u) => x - proj * u })
        val b = na.zip(perp).map { case (u, p) =>
          target * u + math.sqrt(1 - target * target) * p
        }
        assertApprox(VectorOps.cosine(a, b), target, 1e-9, "constructed cosine")
        val sa = fine.signatureBits(a); val sb = fine.signatureBits(b)
        agree += sa.zip(sb).count { case (x, y) => x == y }.toDouble / sa.length
        trials += 1
      }
      val expected = 1.0 - math.acos(target) / math.Pi
      assertApprox(agree / trials, expected, 0.03, s"agreement at cos=$target")
    }
  }

  test("similar vectors collide in at least one band almost surely") {
    val rnd = new Random(11)
    var collisions = 0
    (0 until 50).foreach { _ =>
      val a = Array.fill(dim)(rnd.nextGaussian())
      val b = a.map(x => x + rnd.nextGaussian() * 0.15) // cosine ~0.98
      val ha = lsh.bandHashes(a); val hb = lsh.bandHashes(b)
      if (ha.zip(hb).exists { case (x, y) => x == y }) collisions += 1
    }
    assert(collisions >= 48, s"$collisions/50")
  }

  test("near-orthogonal vectors rarely collide") {
    val rnd = new Random(13)
    var collisions = 0
    (0 until 50).foreach { _ =>
      val a = Array.fill(dim)(rnd.nextGaussian())
      val b = Array.fill(dim)(rnd.nextGaussian())
      val ha = lsh.bandHashes(a); val hb = lsh.bandHashes(b)
      if (ha.zip(hb).exists { case (x, y) => x == y }) collisions += 1
    }
    assert(collisions <= 10, s"$collisions/50")
  }
}
