package repro.eval

import org.apache.spark.sql.SparkSession
import repro.baselines.Aurum
import repro.core._
import repro.corpus.{EvalCorpus, Testbeds}
import repro.eval.Metrics.PrAtK

/** Report builders shared by the spark-submit jobs (`jobs/`) and the bench
  * suites (`bench/`): each returns the formatted paper-vs-measured text that
  * EXPERIMENTS.md records, plus the raw numbers for assertions.
  */
object Reports {

  // ---- Table 1 ------------------------------------------------------------

  final case class CorpusStats(
      name: String, tables: Int, columns: Int, avgRows: Double,
      queries: Option[Int], avgAnswers: Option[Double], rowScale: Double)

  def measure(ec: EvalCorpus): CorpusStats = {
    val counts = ec.corpus.rowCounts().map(_._3)
    val nCols  = ec.corpus.columnIds.size
    val q      = ec.queries
    val avgAns =
      if (q.isEmpty) None
      else Some(q.map(x => ec.answers.getOrElse(x, Set.empty).size).sum.toDouble / q.size)
    CorpusStats(ec.corpus.name, counts.size, nCols, counts.sum.toDouble / counts.size,
      if (q.isEmpty) None else Some(q.size), avgAns, ec.rowScale)
  }

  def table1Row(paper: repro.corpus.PaperStats, m: CorpusStats): String = {
    def fmtQ(o: Option[Int]): String = o.map(_.toString).getOrElse("N/A")
    def fmtA(o: Option[Double]): String = o.map(a => f"$a%.1f").getOrElse("N/A")
    f"${m.name}%-10s | paper: ${paper.tables}%3d tbl ${paper.columns}%5d col " +
      f"${paper.avgRows}%12.0f rows ${fmtQ(paper.queries)}%4s q ${fmtA(paper.avgAnswers)}%4s ans" +
      f" | ours(x${m.rowScale}%.4f): ${m.tables}%3d tbl ${m.columns}%5d col " +
      f"${m.avgRows}%10.1f rows ${fmtQ(m.queries)}%4s q ${fmtA(m.avgAnswers)}%4s ans"
  }

  // ---- Table 2 ------------------------------------------------------------

  final case class Table2Row(
      testbed: String,
      aurum: EvalRunner.TimingSummary,
      d3l: EvalRunner.TimingSummary,
      warpGate: EvalRunner.TimingSummary,
  ) {
    def render: String =
      f"$testbed%-9s | Aurum ${aurum.avgTotalSec}%8.4f | D3L ${d3l.avgTotalSec}%8.3f | " +
        f"WarpGate ${warpGate.avgTotalSec}%8.3f (lookup ${warpGate.avgLookupSec}%7.4f)"
  }

  /** Build all three systems on a testbed and time a deterministic query
    * subsample at k=10, full-value mode — the Table 2 protocol.
    */
  def table2(spark: SparkSession, ec: EvalCorpus, nTimingQueries: Int, k: Int = 10): Table2Row = {
    val queries = EvalRunner.timingQueries(ec, nTimingQueries)

    val (wg, _)    = EvalRunner.buildWarpGate(spark, ec, WarpGateConfig())
    val wgTimes    = EvalRunner.warpGateTimings(ec, wg, queries, k)

    val (aurum, _) = EvalRunner.buildAurum(spark, ec)
    val auTimes    = EvalRunner.aurumTimings(ec, aurum, queries, k)

    val (d3l, _)   = EvalRunner.buildD3L(spark, ec)
    val d3lTimes   = EvalRunner.d3lTimings(spark, ec, d3l, queries, k)

    Table2Row(ec.corpus.name, auTimes, d3lTimes, wgTimes)
  }

  // ---- Figure 4 (as tables) ----------------------------------------------

  final case class PrReport(testbed: String, system: String, pr: Seq[PrAtK]) {
    def render: String = pr.map(p =>
      f"$testbed%-9s $system%-9s k=${p.k}%2d P=${p.precision}%.3f R=${p.recall}%.3f").mkString("\n")
  }

  def effectivenessAll(spark: SparkSession, ec: EvalCorpus, ks: Seq[Int],
                       aurumCfg: Aurum.Config = Aurum.Config()): Seq[PrReport] = {
    val (wg, _) = EvalRunner.buildWarpGate(spark, ec, WarpGateConfig())
    val wgPr    = EvalRunner.warpGateEffectiveness(spark, ec, wg, ks)

    val (au, _) = EvalRunner.buildAurum(spark, ec, aurumCfg)
    val auPr    = EvalRunner.aurumEffectiveness(ec, au, ks)

    val (d3, _) = EvalRunner.buildD3L(spark, ec)
    val d3Pr    = EvalRunner.d3lEffectiveness(ec, d3, ks)

    Seq(PrReport(ec.corpus.name, "Aurum", auPr),
      PrReport(ec.corpus.name, "D3L", d3Pr),
      PrReport(ec.corpus.name, "WarpGate", wgPr))
  }

  // ---- §4.4 sample efficiency --------------------------------------------

  final case class SampleRow(
      testbed: String, model: String, sampleSize: String,
      pr: Seq[PrAtK], timing: EvalRunner.TimingSummary) {
    def render: String = {
      val prs = pr.map(p => f"k=${p.k}%2d P=${p.precision}%.3f R=${p.recall}%.3f").mkString(" ")
      f"$testbed%-9s $model%-22s n=$sampleSize%-5s $prs e2e=${timing.avgTotalSec * 1000}%9.2f ms/q " +
        f"(lookup ${timing.avgLookupSec * 1000}%7.3f ms)"
    }
  }

  def sampleEfficiency(spark: SparkSession, ec: EvalCorpus, model: EmbeddingModel,
                       sampleSizes: Seq[Option[Int]], ks: Seq[Int],
                       nTimingQueries: Int): Seq[SampleRow] = {
    sampleSizes.map { n =>
      val cfg      = WarpGateConfig(model = model, sampleSize = n)
      val (wg, _)  = EvalRunner.buildWarpGate(spark, ec, cfg)
      val pr       = EvalRunner.warpGateEffectiveness(spark, ec, wg, ks)
      val queries  = EvalRunner.timingQueries(ec, nTimingQueries)
      val timing   = EvalRunner.warpGateTimings(ec, wg, queries, 10)
      SampleRow(ec.corpus.name, model.name, n.map(_.toString).getOrElse("full"), pr, timing)
    }
  }

  // ---- corpus construction at bench scales (EXPERIMENTS.md documents) -----

  /** Row scales used by benches: XS and Spider at paper scale, S/M/L at 1/16,
    * Sigma at 1/64.
    */
  def benchCorpus(spark: SparkSession, name: String): EvalCorpus = name match {
    case "XS"     => Testbeds.nextiaJd(spark, "XS", 1.0)
    case "S"      => Testbeds.nextiaJd(spark, "S", 1.0 / 16)
    case "M"      => Testbeds.nextiaJd(spark, "M", 1.0 / 16)
    case "L"      => Testbeds.nextiaJd(spark, "L", 1.0 / 16)
    case "Spider" => Testbeds.spider(spark, 1.0)
    case "Sigma"  => Testbeds.sigma(spark, 1.0 / 64)
    case o        => throw new IllegalArgumentException(s"unknown corpus $o")
  }
}
