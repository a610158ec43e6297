package repro.baselines

import repro.SparkSpec
import repro.TestCorpora
import repro.core.ColumnId

class D3LSpec extends SparkSpec {

  private lazy val (corpus, spec) = TestCorpora.tiny(spark)
  private lazy val index = D3L.build(spark, corpus)

  private val qCompany = ColumnId("dbA", "accounts", "company")
  private val qCode    = ColumnId("dbA", "leads", "ref_code")

  // ---- pure evidence functions -------------------------------------------

  test("formatPattern collapses character-class runs") {
    assert(D3L.formatPattern("Apple Inc.") == "Aa Aa.")
    assert(D3L.formatPattern("2023-01-05") == "9-9-9")
    assert(D3L.formatPattern("AB-100042") == "A-9")
    assert(D3L.formatPattern("") == "")
    assert(D3L.formatPattern(null) == "<null>")
  }

  test("formatPattern caps the pattern length") {
    assert(D3L.formatPattern("a1b2c3d4e5f6g7h8i9j0k1l2m3n4").length <= 24)
  }

  test("jaccard on sets") {
    assert(D3L.jaccard(Set("a", "b"), Set("b", "c")) == 1.0 / 3)
    assert(D3L.jaccard(Set.empty, Set.empty) == 0.0)
    assert(D3L.jaccard(Set("a"), Set("a")) == 1.0)
  }

  test("histCosine of identical histograms is 1") {
    val h = Map("Aa" -> 0.7, "9" -> 0.3)
    assert(math.abs(D3L.histCosine(h, h) - 1.0) < 1e-12)
  }

  test("histCosine of disjoint histograms is 0") {
    assert(D3L.histCosine(Map("Aa" -> 1.0), Map("9" -> 1.0)) == 0.0)
  }

  test("histCosine of empty histogram is 0") {
    assert(D3L.histCosine(Map.empty, Map("9" -> 1.0)) == 0.0)
  }

  // ---- index --------------------------------------------------------------

  test("index has one profile per column") {
    assert(index.profiles.size == spec.tables.map(_.columns.size).sum)
  }

  test("profiles carry all five evidence inputs") {
    val p = index.byId(qCompany)
    assert(p.nameQgrams.nonEmpty)
    assert(p.minhash.length == 128)
    assert(p.embedding.length == index.model.dim)
    assert(p.formats.nonEmpty)
    assert(p.numericFrac >= 0.0 && p.numericFrac <= 1.0)
  }

  test("numeric profile detects numeric columns") {
    val amount = index.byId(ColumnId("dbA", "accounts", "amount"))
    assert(amount.numericFrac > 0.9)
    val company = index.byId(qCompany)
    assert(company.numericFrac < 0.2)
  }

  test("format histograms are normalized distributions") {
    index.profiles.foreach { p =>
      val s = p.formats.values.sum
      assert(s <= 1.0 + 1e-9, s"${p.id}: $s")
      assert(p.formats.values.forall(_ > 0.0))
    }
  }

  test("score is symmetric") {
    val a = index.byId(qCompany)
    val b = index.byId(ColumnId("dbA", "leads", "firm"))
    assert(math.abs(index.score(a, b) - index.score(b, a)) < 1e-12)
  }

  test("cluster pairs score higher than cross-domain pairs") {
    val q    = index.byId(qCompany)
    val firm = index.byId(ColumnId("dbA", "leads", "firm"))
    val date = index.byId(ColumnId("dbA", "accounts", "created_at"))
    assert(index.score(q, firm) > index.score(q, date))
  }

  test("queryCached ranks the company cluster on top") {
    val res = index.queryCached(qCompany, 2).map(_.candidate.key)
    assert(res.toSet.intersect(
      Set("dbA.leads.firm", "dbB.orgs.organization")).nonEmpty, res)
  }

  test("queryCached finds the code cluster") {
    val res = index.queryCached(qCode, 3).map(_.candidate.key)
    assert(res.contains("dbB.refs.code"), res)
  }

  test("queryCached excludes the query table") {
    val res = index.queryCached(qCompany, 10)
    assert(res.forall(r => !(r.candidate.database == "dbA" && r.candidate.table == "accounts")))
  }

  test("queryCached respects sameDatabaseOnly") {
    val res = index.queryCached(qCompany, 10, sameDatabaseOnly = true)
    assert(res.nonEmpty)
    assert(res.forall(_.candidate.database == "dbA"))
  }

  test("results are score-sorted and capped at k") {
    val res = index.queryCached(qCompany, 4)
    assert(res.size <= 4)
    val ss = res.map(_.score)
    assert(ss == ss.sorted.reverse)
  }

  test("queryTimed agrees with queryCached and reports load time") {
    val (res, t) = index.queryTimed(spark, corpus, qCompany, 5)
    assert(res.map(_.candidate.key) == index.queryCached(qCompany, 5).map(_.candidate.key))
    assert(t.loadEmbedMs > 0.0)
  }
}
