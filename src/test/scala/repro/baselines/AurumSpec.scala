package repro.baselines

import repro.SparkSpec
import repro.TestCorpora
import repro.core.ColumnId

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
        index.signatures(qCompany.key), index.signatures(r.candidate.key))
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
}
