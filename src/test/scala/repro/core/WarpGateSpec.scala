package repro.core

import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageCompleted}
import repro.SparkSpec
import repro.TestCorpora
import scala.collection.mutable

class WarpGateSpec extends SparkSpec {

  private lazy val (corpus, spec) = TestCorpora.tiny(spark)
  private lazy val index = WarpGate.buildIndex(spark, corpus, WarpGateConfig())
  private lazy val sampledIndex =
    WarpGate.buildIndex(spark, corpus, WarpGateConfig(sampleSize = Some(50)))

  private val qCompany = ColumnId("dbA", "accounts", "company")
  private val qCode    = ColumnId("dbA", "leads", "ref_code")

  test("index holds one embedding per corpus column") {
    assert(index.columns.length == spec.tables.map(_.columns.size).sum)
    assert(index.columns.distinct.length == index.columns.length)
  }

  test("index vectors have the model dimension") {
    assert(index.vectors.forall(_.length == index.config.model.dim))
  }

  test("vectorOf finds known columns and misses unknown ones") {
    assert(index.vectorOf(qCompany).isDefined)
    assert(index.vectorOf(ColumnId("x", "y", "z")).isEmpty)
  }

  test("lookup finds the cluster columns for a company query") {
    val vec = index.vectorOf(qCompany).get
    val res = index.lookup(vec, qCompany, k = 5)
    val keys = res.map(_.candidate.key)
    assert(keys.contains("dbA.leads.firm"), keys)
    assert(keys.contains("dbB.orgs.organization"), keys)
  }

  test("lookup finds the code cluster for a code query") {
    val vec = index.vectorOf(qCode).get
    val res = index.lookup(vec, qCode, k = 5)
    assert(res.map(_.candidate.key).contains("dbB.refs.code"))
  }

  test("lookup never returns the query column or its own table") {
    val vec = index.vectorOf(qCompany).get
    val res = index.lookup(vec, qCompany, k = 10)
    assert(res.forall(r => !(r.candidate.database == "dbA" && r.candidate.table == "accounts")))
  }

  test("lookup respects the similarity threshold") {
    val vec = index.vectorOf(qCompany).get
    index.lookup(vec, qCompany, k = 10).foreach(r => assert(r.score >= 0.7))
  }

  test("lookup results are sorted by descending score") {
    val vec    = index.vectorOf(qCompany).get
    val scores = index.lookup(vec, qCompany, k = 10).map(_.score)
    assert(scores == scores.sorted.reverse)
  }

  test("lookup caps results at k") {
    val vec = index.vectorOf(qCompany).get
    assert(index.lookup(vec, qCompany, k = 1).size <= 1)
  }

  test("sameDatabaseOnly restricts the candidate scope") {
    val vec = index.vectorOf(qCompany).get
    val res = index.lookup(vec, qCompany, k = 10, sameDatabaseOnly = true)
    assert(res.nonEmpty)
    assert(res.forall(_.candidate.database == "dbA"))
  }

  test("queryFull reports phase timings and finds the cluster") {
    val (res, t) = index.queryFull(corpus, qCompany, k = 5)
    assert(res.map(_.candidate.key).contains("dbA.leads.firm"))
    assert(t.loadEmbedMs > 0 && t.lookupMs >= 0)
    assert(t.totalMs >= t.loadEmbedMs)
  }

  /** Stage count of each Spark job `body` runs, and the shuffle bytes its
    * stages write.
    */
  private def sparkWork(body: => Unit): (Seq[Int], Long) = {
    val sc = spark.sparkContext
    val stages  = mutable.ArrayBuffer[Int]()
    var shuffle = 0L
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        stages.synchronized { stages += e.stageInfos.size }
      override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
        stages.synchronized {
          shuffle += e.stageInfo.taskMetrics.shuffleWriteMetrics.bytesWritten
        }
    }
    ListenerBusAccess.waitUntilEmpty(sc)
    sc.addSparkListener(listener)
    try { body; ListenerBusAccess.waitUntilEmpty(sc) }
    finally sc.removeSparkListener(listener)
    stages.synchronized((stages.toSeq, shuffle))
  }

  test("queryFull runs one Spark job with no shuffle") {
    index.queryFull(corpus, qCompany, k = 5) // the corpus table is cached by now
    val (jobs, shuffleBytes) = sparkWork(index.queryFull(corpus, qCompany, k = 5))
    assert(jobs == Seq(1), s"stages per job: $jobs")
    assert(shuffleBytes == 0L)
  }

  test("lookupIndexed equals lookup with the stored vector for every query") {
    for (q <- spec.queries; sdo <- Seq(false, true)) {
      assert(index.lookupIndexed(q, 10, sdo) == index.lookup(index.vectorOf(q).get, q, 10, sdo),
        s"${q.key} sameDatabaseOnly=$sdo")
    }
    intercept[NoSuchElementException](index.lookupIndexed(ColumnId("x", "y", "z"), 10))
  }

  test("querySampled requires a sampled index") {
    intercept[IllegalStateException](index.querySampled(qCompany, 3))
  }

  test("querySampled answers from the driver-side sample cache") {
    val (res, t) = sampledIndex.querySampled(qCompany, 5)
    assert(res.map(_.candidate.key).contains("dbA.leads.firm"))
    assert(t.totalMs < 1000.0) // no Spark job on this path
  }

  test("sampled index caches one sample per column") {
    assert(sampledIndex.sampleCache.size == index.columns.length)
    assert(sampledIndex.sampleCache.values.forall(_.length <= 50))
  }

  test("sampled index vectors are the driver-side means of the cached samples") {
    sampledIndex.columns.indices.foreach { i =>
      val sample = sampledIndex.sampleCache(sampledIndex.columns(i).key)
      assert(sampledIndex.vectors(i).toSeq ==
        ColumnEmbedder.embedValuesLocal(sample, sampledIndex.config.model).toSeq,
        sampledIndex.columns(i).key)
    }
  }

  test("sampled index effectiveness matches full index on the tiny corpus") {
    val vecF = index.vectorOf(qCompany).get
    val vecS = sampledIndex.vectorOf(qCompany).get
    val full    = index.lookup(vecF, qCompany, 3).map(_.candidate.key).toSet
    val sampled = sampledIndex.lookup(vecS, qCompany, 3).map(_.candidate.key).toSet
    assert(full == sampled)
  }

  /** Brute-force reference for `lookup`: exact cosine against every
    * in-scope column, at or above the threshold, top-k by score and then key.
    */
  private def exactTopK(ix: WarpGateIndex, q: ColumnId, k: Int,
                        sameDatabaseOnly: Boolean = false): Seq[ColumnId] = {
    val v = ix.vectorOf(q).get
    ix.columns.indices
      .filter { i =>
        val c = ix.columns(i)
        !(c.database == q.database && c.table == q.table) &&
          (!sameDatabaseOnly || c.database == q.database)
      }
      .map(i => (ix.columns(i), VectorOps.cosine(v, ix.vectors(i))))
      .filter(_._2 >= ix.config.threshold)
      .sortBy { case (c, s) => (-s, c.key) }
      .take(k)
      .map(_._1)
  }

  private def topK(ix: WarpGateIndex, q: ColumnId, k: Int,
                   sameDatabaseOnly: Boolean = false): Seq[ColumnId] =
    ix.lookup(ix.vectorOf(q).get, q, k, sameDatabaseOnly).map(_.candidate)

  test("lookup top-k equals the exact-scan top-k on the tiny corpus") {
    spec.queries.foreach { q =>
      assert(topK(index, q, 5) == exactTopK(index, q, 5), s"mismatch for ${q.key}")
    }
  }

  test("lookup scores equal exact cosine of stored vectors") {
    val res = index.lookup(index.vectorOf(qCompany).get, qCompany, k = 5)
    assert(res.nonEmpty)
    res.foreach { r =>
      val expect = VectorOps.cosine(index.vectorOf(qCompany).get, index.vectorOf(r.candidate).get)
      assert(math.abs(r.score - expect) < 1e-9)
    }
  }

  test("lookup per-database scoping equals the scoped exact scan") {
    spec.queries.foreach { q =>
      val got = topK(index, q, 10, sameDatabaseOnly = true)
      assert(got.forall(_.database == q.database), s"${q.key}: $got")
      assert(got == exactTopK(index, q, 10, sameDatabaseOnly = true), s"${q.key}")
    }
  }

  /** Two tables holding the same column values: their columns tie on score
    * for any query.
    */
  private lazy val tieIndex = {
    import spark.implicits._
    val names = Seq("Acme Corp", "Globex Inc", "Initech LLC", "Umbrella Co", "Hooli Ltd")
    val twin  = names.toDF("org")
    val corpus = Corpus("ties", Seq(
      CorpusTable("db", "query", names.reverse.toDF("name")),
      CorpusTable("db", "zeta", twin),
      CorpusTable("db", "alpha", twin),
    ))
    WarpGate.buildIndex(spark, corpus, WarpGateConfig())
  }
  private val qTie = ColumnId("db", "query", "name")

  test("equal scores are returned in candidate key order") {
    val res = tieIndex.lookup(tieIndex.vectorOf(qTie).get, qTie, k = 5)
    assert(res.map(_.candidate) == Seq(ColumnId("db", "alpha", "org"), ColumnId("db", "zeta", "org")))
    assert(res(0).score == res(1).score)
  }

  test("top-k does not depend on the order of the index columns") {
    Seq(index -> spec.queries, tieIndex -> Seq(qTie)).foreach { case (ix, queries) =>
      val reversed = new WarpGateIndex(ix.config, ix.lsh, ix.embeddings,
        ix.columns.reverse, ix.vectors.reverse, ix.sampleCache)
      queries.foreach(q => assert(topK(reversed, q, 10) == topK(ix, q, 10), s"${q.key}"))
    }
  }

  test("a column name containing a dot is melted, indexed and queried") {
    import spark.implicits._
    val names  = Seq("Acme Corp", "Globex Inc", "Initech LLC", "Umbrella Co")
    val dotted = ColumnId("db", "left", "a.b")
    val plain  = ColumnId("db", "right", "org")
    val corpus = Corpus("dots", Seq(
      CorpusTable("db", "left", names.toDF("a.b")),
      CorpusTable("db", "right", names.reverse.toDF("org")),
    ))
    val ix = WarpGate.buildIndex(spark, corpus, WarpGateConfig())
    assert(ix.columns.toSet == Set(dotted, plain))
    assert(ix.queryFull(corpus, plain, k = 5)._1.map(_.candidate) == Seq(dotted))
    assert(ix.queryFull(corpus, dotted, k = 5)._1.map(_.candidate) == Seq(plain))
  }

  test("a higher threshold prunes more candidates") {
    val strict = WarpGate.buildIndex(spark, corpus,
      WarpGateConfig(threshold = 0.95))
    val vec = strict.vectorOf(qCompany).get
    val loose  = index.lookup(index.vectorOf(qCompany).get, qCompany, 10)
    val tight  = strict.lookup(vec, qCompany, 10)
    assert(tight.size <= loose.size)
  }
}
