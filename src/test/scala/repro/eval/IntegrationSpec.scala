package repro.eval

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core._
import repro.corpus.Testbeds

/** End-to-end runs of all three systems on NextiaJD-XS (reduced rows) and
  * Spider (reduced rows), asserting the orderings the paper's Figure 4 and
  * Table 2 report.
  */
class IntegrationSpec extends SparkSpec {

  private lazy val xs = {
    val ec = Testbeds.nextiaJd(spark, "XS", 0.1)
    ec.copy(corpus = ec.corpus.copy(tables = ec.corpus.tables.map(t => t.copy(df = t.df.cache()))))
  }
  private lazy val spider = {
    val ec = Testbeds.spider(spark, 0.05)
    ec.copy(corpus = ec.corpus.copy(tables = ec.corpus.tables.map(t => t.copy(df = t.df.cache()))))
  }
  private val ks = Seq(1, 5, 10)

  private lazy val xsReports     = Reports.effectivenessAll(spark, xs, ks)
  private lazy val spiderReports = Reports.effectivenessAll(spark, spider, ks)
  /** The full-value XS index, shared by the join-path and timing tests. */
  private lazy val xsWarpGate    = EvalRunner.buildWarpGate(spark, xs, WarpGateConfig())._1
  /** §4.4 sample efficiency on XS, shared by the two sampling tests. */
  private lazy val xsSampling    = Reports.sampleEfficiency(spark, xs, new WebTableEmbeddingModel(),
    Seq(Some(100), None), Seq(10), 5)

  private def pr(reports: Seq[Reports.PrReport], system: String, k: Int): Metrics.PrAtK =
    reports.find(_.system == system).get.pr.find(_.k == k).get

  test("XS: WarpGate reaches useful recall at k=10") {
    val r = pr(xsReports, "WarpGate", 10).recall
    assert(r > 0.6, s"recall=$r")
  }

  test("XS: WarpGate reaches useful precision at k=1") {
    val p = pr(xsReports, "WarpGate", 1).precision
    assert(p > 0.6, s"precision=$p")
  }

  test("XS: WarpGate beats Aurum on recall at every k (Figure 4 ordering)") {
    ks.foreach { k =>
      val wg = pr(xsReports, "WarpGate", k).recall
      val au = pr(xsReports, "Aurum", k).recall
      assert(wg >= au, s"k=$k wg=$wg aurum=$au")
    }
  }

  test("XS: WarpGate is at least on par with D3L on recall at k=10") {
    val wg = pr(xsReports, "WarpGate", 10).recall
    val d3 = pr(xsReports, "D3L", 10).recall
    assert(wg >= d3 - 0.02, s"wg=$wg d3l=$d3")
  }

  test("XS: recall grows with k for all systems") {
    Seq("WarpGate", "D3L", "Aurum").foreach { s =>
      val rs = ks.map(k => pr(xsReports, s, k).recall)
      assert(rs == rs.sorted, s"$s: $rs")
    }
  }

  test("Spider: WarpGate beats Aurum by a large margin on recall at k=10 (§4.3.2)") {
    val wg = pr(spiderReports, "WarpGate", 10).recall
    val au = pr(spiderReports, "Aurum", 10).recall
    assert(wg > au + 0.2, s"wg=$wg aurum=$au")
  }

  test("Spider: WarpGate compares favorably with D3L at k=10") {
    // "compare favorably against the ensemble approach" (§4.3.2): both end
    // high and converge at k=10. At this reduced row scale small integer key
    // pools sit near the cosine threshold, so allow a slightly wider band
    // than at bench scale.
    val wg = pr(spiderReports, "WarpGate", 10).recall
    val d3 = pr(spiderReports, "D3L", 10).recall
    assert(wg >= d3 - 0.12, s"wg=$wg d3l=$d3")
    assert(wg > 0.8, s"wg=$wg")
  }

  test("Spider: D3L recall improves between k=5 and k=10 (name-similarity tail)") {
    val r5  = pr(spiderReports, "D3L", 5).recall
    val r10 = pr(spiderReports, "D3L", 10).recall
    assert(r10 >= r5)
  }

  test("discovered join path executes correctly end-to-end (oracle)") {
    // Take WarpGate's top recommendation for an XS query and actually join
    // the two tables on the discovered columns, validating against DuckDB —
    // the Lookup feature's cardinality-preserving join (§2.1).
    val index = xsWarpGate
    val q = xs.queries.find { q =>
      index.lookup(index.vectorOf(q).get, q, 1).nonEmpty
    }.get
    val rec = index.lookup(index.vectorOf(q).get, q, 1).head.candidate
    val qDf = xs.corpus.table(q.database, q.table).df
    val cDf = xs.corpus.table(rec.database, rec.table).df

    val joined = qDf.select(col(q.column).as("k")).distinct()
      .join(cDf.select(col(rec.column).as("k")).distinct(), "k")
      .agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(joined,
      s"""SELECT count(*) AS n FROM
         |  (SELECT DISTINCT "${q.column}" AS k FROM qt) a
         |  JOIN (SELECT DISTINCT "${rec.column}" AS k FROM ct) b USING (k)""".stripMargin,
      "qt" -> qDf, "ct" -> cDf)
    // and the join is non-trivial
    assert(joined.collect()(0).getLong(0) > 0)
  }

  test("timing: Aurum answers from the graph orders of magnitude faster (Table 2 ordering)") {
    val queries = EvalRunner.timingQueries(xs, 5)

    val wgT = EvalRunner.warpGateTimings(xs, xsWarpGate, queries, 10)

    val (au, _) = EvalRunner.buildAurum(spark, xs)
    val auT = EvalRunner.aurumTimings(xs, au, queries, 10)

    val (d3, _) = EvalRunner.buildD3L(spark, xs)
    val d3T = EvalRunner.d3lTimings(spark, xs, d3, queries, 10)

    assert(auT.avgTotalSec < wgT.avgTotalSec, s"aurum=${auT.avgTotalSec} wg=${wgT.avgTotalSec}")
    assert(wgT.avgTotalSec < d3T.avgTotalSec, s"wg=${wgT.avgTotalSec} d3l=${d3T.avgTotalSec}")
  }

  test("timing: WarpGate lookup is a minority of its end-to-end time") {
    val queries = EvalRunner.timingQueries(xs, 5)
    val t = EvalRunner.warpGateTimings(xs, xsWarpGate, queries, 10)
    assert(t.avgLookupSec < 0.5 * t.avgTotalSec,
      s"lookup=${t.avgLookupSec} total=${t.avgTotalSec}")
  }

  test("sampling: effectiveness within a few points of full values (§4.4)") {
    val rows = xsSampling
    val sampled = rows.find(_.sampleSize == "100").get.pr.head
    val full    = rows.find(_.sampleSize == "full").get.pr.head
    assert(math.abs(sampled.recall - full.recall) < 0.1,
      s"sampled=${sampled.recall} full=${full.recall}")
    assert(math.abs(sampled.precision - full.precision) < 0.1)
  }

  test("sampling: sampled query path is far faster than full scans (§4.4)") {
    val rows = xsSampling
    val sampled = rows.find(_.sampleSize == "100").get.timing.avgTotalSec
    val full    = rows.find(_.sampleSize == "full").get.timing.avgTotalSec
    assert(sampled < full / 5, s"sampled=$sampled full=$full")
  }
}
