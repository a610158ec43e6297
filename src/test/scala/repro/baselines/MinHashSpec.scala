package repro.baselines

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.ColumnId

class MinHashSpec extends SparkSpec {

  private val profiler = new MinHashProfiler()

  test("hashes are deterministic and sized numHashes") {
    assert(profiler.hashes("abc").toSeq == profiler.hashes("abc").toSeq)
    assert(profiler.hashes("abc").length == 128)
  }

  test("different values give different hash vectors") {
    assert(profiler.hashes("abc").toSeq != profiler.hashes("abd").toSeq)
  }

  test("null hashes like the empty string") {
    assert(profiler.hashes(null).toSeq == profiler.hashes("").toSeq)
  }

  test("signatureLocal is the componentwise minimum") {
    val vals = Seq("a", "b", "c")
    val sig  = profiler.signatureLocal(vals)
    val hs   = vals.map(profiler.hashes)
    (0 until 128).foreach(i => assert(sig(i) == hs.map(_(i)).min))
  }

  test("identical sets give identical signatures") {
    assert(profiler.signatureLocal(Seq("x", "y")).toSeq ==
      profiler.signatureLocal(Seq("y", "x", "x")).toSeq)
  }

  test("estimateJaccard is 1 for identical sets and near 0 for disjoint sets") {
    val a = profiler.signatureLocal((0 until 200).map(i => s"v$i"))
    val b = profiler.signatureLocal((0 until 200).map(i => s"v$i"))
    val c = profiler.signatureLocal((0 until 200).map(i => s"w$i"))
    assert(profiler.estimateJaccard(a, b) == 1.0)
    assert(profiler.estimateJaccard(a, c) < 0.1)
  }

  test("estimateJaccard approximates exact Jaccard (oracle-checked exact)") {
    import spark.implicits._
    // sets: A = [0, 300), B = [100, 400) => jaccard = 200/400 = 0.5
    val dfA = (0 until 300).map(i => s"item$i").toDF("v")
    val dfB = (100 until 400).map(i => s"item$i").toDF("v")

    val exact = dfA.select($"v").intersect(dfB.select($"v")).count().toDouble /
      dfA.select($"v").union(dfB.select($"v")).distinct().count()
    assert(exact == 0.5)

    // oracle: same computation in DuckDB
    val exactDf = dfA.as("a").join(dfB.as("b"), $"a.v" === $"b.v")
      .agg(count(lit(1)).as("inter"))
    Oracle.assertEquivalent(exactDf,
      "SELECT count(*) AS inter FROM a JOIN b ON a.v = b.v", "a" -> dfA, "b" -> dfB)

    val est = profiler.estimateJaccard(
      profiler.signatureLocal((0 until 300).map(i => s"item$i")),
      profiler.signatureLocal((100 until 400).map(i => s"item$i")))
    assert(math.abs(est - exact) < 0.15, s"est=$est exact=$exact")
  }

  test("estimation error shrinks with more hash functions") {
    def errAt(n: Int): Double = {
      val p = new MinHashProfiler(n)
      val est = p.estimateJaccard(
        p.signatureLocal((0 until 400).map(i => s"item$i")),
        p.signatureLocal((200 until 600).map(i => s"item$i")))
      math.abs(est - 1.0 / 3)
    }
    // averaged over a single draw this is noisy; compare small vs large n
    assert(errAt(512) <= errAt(16) + 0.05)
  }

  test("distributed signatures equal local signatures") {
    val (corpus, _) = repro.TestCorpora.tiny(spark)
    val melt  = corpus.meltAll(None)
    val local = corpus.tables.flatMap { t =>
      t.df.columns.map { c =>
        ColumnId(t.database, t.table, c) ->
          profiler.signatureLocal(t.df.select(col(c).cast("string")).collect().map(_.getString(0)).toSeq)
      }
    }.toMap
    Seq(melt.coalesce(1), melt.repartition(4)).foreach { values =>
      val sigs = profiler.signatures(values)
      assert(sigs.map(_.id).toSet == local.keySet)
      sigs.foreach(s => assert(s.acc.toSeq == local(s.id).toSeq, s.id))
    }
  }

  test("signatures have one entry per column with counts") {
    val (corpus, spec) = repro.TestCorpora.tiny(spark)
    val sigs = profiler.signatures(corpus.meltAll(None))
    assert(sigs.length == spec.tables.map(_.columns.size).sum)
    val n = sigs.find(_.id == ColumnId("dbA", "accounts", "company")).get.nValues
    assert(n == 400)
  }

  test("nested interval sets show the Jaccard/containment asymmetry") {
    // containment(small in big) = 1.0 but Jaccard = 0.4 — the blind spot of
    // Jaccard-based discovery that WarpGate's embeddings do not share.
    val big   = (0 until 500).map(i => s"e$i")
    val small = (0 until 200).map(i => s"e$i")
    val est = profiler.estimateJaccard(
      profiler.signatureLocal(big), profiler.signatureLocal(small))
    assert(est < 0.6, s"est=$est")
    assert(est > 0.2, s"est=$est")
  }
}
