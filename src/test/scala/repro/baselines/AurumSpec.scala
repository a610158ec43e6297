package repro.baselines

import repro.SparkSpec
import repro.TestCorpora
import repro.core.{ColumnId, Corpus, CorpusTable}

class AurumSpec extends SparkSpec {

  private lazy val (corpus, spec) = TestCorpora.tiny(spark)
  // Low threshold so the tiny corpus' nested intervals (Jaccard ~0.85/0.68)
  // all become edges; default-threshold behavior is tested separately.
  private lazy val index = Aurum.build(spark, corpus, Aurum.Config(threshold = 0.3))

  private val qCompany = ColumnId("dbA", "accounts", "company")
  private val qCode    = ColumnId("dbA", "leads", "ref_code")

  test("config validates band geometry") {
    intercept[IllegalArgumentException](
      Aurum.build(spark, corpus, Aurum.Config(numHashes = 128, bands = 10, rowsPerBand = 8)))
  }

  test("graph contains content-similarity edges for the company cluster") {
    val (res, _) = index.query(qCompany, 5)
    val keys = res.map(_.candidate.key)
    assert(keys.contains("dbA.leads.firm"), keys)
    assert(keys.contains("dbB.orgs.organization"), keys)
  }

  test("graph contains edges for the code cluster") {
    val (res, _) = index.query(qCode, 5)
    assert(res.map(_.candidate.key).contains("dbB.refs.code"))
  }

  test("edges are symmetric") {
    val fwd = index.query(qCompany, 10)._1.map(_.candidate)
    fwd.foreach { n =>
      val back = index.query(n, 10)._1.map(_.candidate)
      assert(back.contains(qCompany), s"missing back edge from $n")
    }
  }

  test("edge weights are the estimated Jaccard of the signatures") {
    val (res, _) = index.query(qCompany, 10)
    res.foreach { r =>
      val est = index.profiler.estimateJaccard(
        index.signatures(qCompany), index.signatures(r.candidate))
      assert(math.abs(r.score - est) < 1e-12)
    }
  }

  test("all edges meet the threshold") {
    index.graph.values.flatten.foreach { case (_, w) => assert(w >= 0.3) }
  }

  test("query results are weight-sorted and capped at k") {
    val (res, _) = index.query(qCompany, 1)
    assert(res.size <= 1)
    val (all, _) = index.query(qCompany, 10)
    val ws = all.map(_.score)
    assert(ws == ws.sorted.reverse)
  }

  test("no self or same-table edges") {
    index.graph.foreach { case (src, nbrs) =>
      nbrs.foreach { case (dst, _) =>
        assert(!(src.database == dst.database && src.table == dst.table))
      }
    }
  }

  test("query timing has no load/embed phase (graph-only lookup)") {
    val (_, t) = index.query(qCompany, 5)
    assert(t.loadEmbedMs == 0.0)
    assert(t.lookupMs < 100.0)
  }

  test("default 0.7 threshold misses high-containment low-Jaccard pairs") {
    // orgs.organization = [60, 400) vs accounts.company = [0, 400):
    // containment 1.0 but Jaccard = 340/400 = 0.85 — kept;
    // refs.code = [0, 280) vs leads.ref_code = [0, 350): Jaccard = 0.8 — kept;
    // at default settings Aurum keeps only syntactically near-identical pairs.
    val strict = Aurum.build(spark, corpus, Aurum.Config())
    val looseEdges  = index.graph.values.map(_.size).sum
    val strictEdges = strict.graph.values.map(_.size).sum
    assert(strictEdges <= looseEdges)
  }

  test("sameDatabaseOnly restricts query scope") {
    val (res, _) = index.query(qCompany, 10, sameDatabaseOnly = true)
    assert(res.forall(_.candidate.database == "dbA"))
  }

  test("unknown query column returns no results") {
    val (res, _) = index.query(ColumnId("no", "such", "col"), 5)
    assert(res.isEmpty)
  }

  test("a build leaves no persisted RDD behind") {
    corpus.tables.foreach(_.df.count()) // materialize the corpus' own cache first
    val before = spark.sparkContext.getPersistentRDDs.keySet
    Aurum.build(spark, corpus)
    assert(spark.sparkContext.getPersistentRDDs.keySet -- before == Set.empty)
  }

  test("the graph equals a brute force over all banded cross-table pairs") {
    val cfg  = index.config
    val sigs = index.signatures.toSeq
    val bands = sigs.map { case (id, sig) => id -> Aurum.bandHashes(sig, cfg) }.toMap
    val want = (for {
      (a, sa) <- sigs
      (b, sb) <- sigs
      if !(a.database == b.database && a.table == b.table)
      if bands(a).indices.exists(i => bands(a)(i) == bands(b)(i))
      est = index.profiler.estimateJaccard(sa, sb)
      if est >= cfg.threshold
    } yield (a, b, est)).groupBy(_._1).map { case (a, es) =>
      a -> es.map { case (_, b, w) => (b, w) }.sortBy { case (b, w) => (-w, b.key) }
    }
    assert(sigs.size == spec.tables.map(_.columns.size).sum)
    assert(index.graph == want)
  }

  test("equal-weight neighbours come back in candidate key order") {
    import spark.implicits._
    val names = (0 until 50).map(i => s"Company $i")
    val corpus = Corpus("ties", Seq(
      CorpusTable("db", "query", names.toDF("name")),
      CorpusTable("db", "zeta", names.reverse.toDF("name")),
      CorpusTable("db", "alpha", names.toDF("name")),
    ))
    val ix = Aurum.build(spark, corpus)
    val res = ix.query(ColumnId("db", "query", "name"), 5)._1
    assert(res.map(_.score) == Seq(1.0, 1.0))
    assert(res.map(_.candidate) == Seq(ColumnId("db", "alpha", "name"), ColumnId("db", "zeta", "name")))
  }

  test("a column name containing a dot is profiled and linked") {
    import spark.implicits._
    val names  = Seq("Acme Corp", "Globex Inc", "Initech LLC", "Umbrella Co")
    val dotted = ColumnId("db", "left", "a.b")
    val plain  = ColumnId("db", "right", "org")
    val corpus = Corpus("dots", Seq(
      CorpusTable("db", "left", names.toDF("a.b")),
      CorpusTable("db", "right", names.reverse.toDF("org")),
    ))
    val ix = Aurum.build(spark, corpus)
    assert(ix.signatures.keySet == Set(dotted, plain))
    assert(ix.query(plain, 5)._1.map(_.candidate) == Seq(dotted))
    assert(ix.query(dotted, 5)._1.map(_.candidate) == Seq(plain))
  }

  test("columns whose dotted keys collide keep their own signatures") {
    import spark.implicits._
    val left   = ColumnId("a", "b.c", "d")
    val right  = ColumnId("a", "b", "c.d")
    val lefts  = Seq("Acme Corp", "Globex Inc")
    val rights = Seq("Paris", "Lyon", "Nice")
    assert(left.key == right.key)
    val corpus = Corpus("collide", Seq(
      CorpusTable("a", "b.c", lefts.toDF("d")),
      CorpusTable("a", "b", rights.toDF("c.d")),
    ))
    val ix = Aurum.build(spark, corpus)
    assert(ix.signatures.size == 2)
    assert(ix.signatures(left).toSeq == ix.profiler.signatureLocal(lefts).toSeq)
    assert(ix.signatures(right).toSeq == ix.profiler.signatureLocal(rights).toSeq)
  }
}
