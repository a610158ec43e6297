package repro.eval

import repro.SparkSpec
import repro.TestCorpora

class ReportsSpec extends SparkSpec {

  private lazy val ec = TestCorpora.tinyEval(spark)

  test("measure reports the corpus shape") {
    val m = Reports.measure(ec)
    assert(m.tables == 4)
    assert(m.columns == 11)
    assert(m.queries.contains(5))
    assert(m.avgRows == (400 + 350 + 500 + 300) / 4.0)
    assert(m.avgAnswers.exists(_ > 0))
  }

  test("table1Row renders paper and measured values") {
    val row = Reports.table1Row(ec.paper, Reports.measure(ec))
    assert(row.contains("tiny"))
    assert(row.contains("paper:"))
    assert(row.contains("ours"))
  }

  test("table2 produces timings for all three systems") {
    val row = Reports.table2(spark, ec, nTimingQueries = 3)
    assert(row.aurum.queries == 3)
    assert(row.d3l.queries == 3)
    assert(row.warpGate.queries == 3)
    assert(row.warpGate.avgTotalSec > 0)
    assert(row.render.contains("WarpGate"))
  }

  test("effectivenessAll returns reports for all three systems") {
    val reports = Reports.effectivenessAll(spark, ec, Seq(1, 3))
    assert(reports.map(_.system).toSet == Set("Aurum", "D3L", "WarpGate"))
    reports.foreach(r => assert(r.pr.map(_.k) == Seq(1, 3)))
    reports.foreach(_.pr.foreach { p =>
      assert(p.precision >= 0 && p.precision <= 1)
      assert(p.recall >= 0 && p.recall <= 1)
    })
  }

  test("sampleEfficiency sweeps sample sizes") {
    val rows = Reports.sampleEfficiency(spark, ec, new repro.core.WebTableEmbeddingModel(),
      Seq(Some(10), None), Seq(1), 2)
    assert(rows.map(_.sampleSize) == Seq("10", "full"))
    rows.foreach(r => assert(r.render.nonEmpty))
  }

  test("timingQueries is deterministic and bounded") {
    val a = EvalRunner.timingQueries(ec, 3)
    val b = EvalRunner.timingQueries(ec, 3)
    assert(a == b)
    assert(a.size == 3)
  }

  test("warpGateEffectiveness rejects a query column the index does not hold") {
    val index   = repro.core.WarpGate.buildIndex(spark, ec.corpus, repro.core.WarpGateConfig())
    val unknown = repro.core.ColumnId("dbA", "accounts", "missing")
    val withUnknown = ec.copy(spec = ec.spec.copy(queries = ec.spec.queries :+ unknown))
    val err = intercept[NoSuchElementException](
      EvalRunner.warpGateEffectiveness(spark, withUnknown, index, Seq(1)))
    assert(err.getMessage.contains(unknown.key))
  }

  test("benchCorpus rejects unknown corpus names") {
    intercept[IllegalArgumentException](Reports.benchCorpus(spark, "nope"))
  }
}
