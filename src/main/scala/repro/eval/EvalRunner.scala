package repro.eval

import org.apache.spark.sql.SparkSession
import repro.baselines.{Aurum, D3L}
import repro.core._
import repro.corpus.EvalCorpus
import repro.eval.Metrics.PrAtK

/** End-to-end runners: build each system over an [[EvalCorpus]], run all
  * queries, and report effectiveness (Figure 4) and per-phase timings
  * (Table 2). Effectiveness paths avoid per-query rescans (WarpGate probes
  * its driver-side index with each query's stored vector and band hashes;
  * baselines use stored profiles); timing paths measure the interactive
  * per-query pipeline the paper reports.
  */
object EvalRunner {

  final case class TimingSummary(
      system: String,
      queries: Int,
      avgLoadEmbedSec: Double,
      avgLookupSec: Double,
  ) {
    def avgTotalSec: Double = avgLoadEmbedSec + avgLookupSec
  }

  final case class SystemEval(system: String, pr: Seq[PrAtK], indexBuildSec: Double)

  def summarize(system: String, ts: Seq[QueryTiming]): TimingSummary =
    TimingSummary(system, ts.size,
      ts.map(_.loadEmbedMs).sum / ts.size / 1000.0,
      ts.map(_.lookupMs).sum / ts.size / 1000.0)

  private def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  // ---- WarpGate -----------------------------------------------------------

  def buildWarpGate(spark: SparkSession, ec: EvalCorpus, cfg: WarpGateConfig): (WarpGateIndex, Double) =
    timed(WarpGate.buildIndex(spark, ec.corpus, cfg))

  /** Effectiveness via the driver index, each query probed with its own
    * stored vector and band hashes (`lookupIndexed`); no Spark job runs
    * (`spark` is unused). Throws NoSuchElementException for a query column
    * the index does not hold.
    */
  def warpGateEffectiveness(spark: SparkSession, ec: EvalCorpus, index: WarpGateIndex,
                            ks: Seq[Int]): Seq[PrAtK] = {
    val kMax = ks.max
    val res = ec.queries.map { q =>
      q -> index.lookupIndexed(q, kMax, ec.sameDatabaseOnly).map(_.candidate)
    }.toMap
    Metrics.evaluate(res, ec.answers, ec.queries, ks)
  }

  /** Per-query timings over `queries` (full-value path unless the index was
    * built with sampling, in which case the sampled path is used).
    */
  def warpGateTimings(ec: EvalCorpus, index: WarpGateIndex,
                      queries: Seq[ColumnId], k: Int): TimingSummary = {
    val ts = queries.map { q =>
      val (_, t) =
        if (index.config.sampleSize.isDefined) index.querySampled(q, k, ec.sameDatabaseOnly)
        else index.queryFull(ec.corpus, q, k, ec.sameDatabaseOnly)
      t
    }
    summarize("WarpGate", ts)
  }

  // ---- Aurum --------------------------------------------------------------

  def buildAurum(spark: SparkSession, ec: EvalCorpus, cfg: Aurum.Config = Aurum.Config()): (Aurum.Index, Double) =
    timed(Aurum.build(spark, ec.corpus, cfg))

  def aurumEffectiveness(ec: EvalCorpus, index: Aurum.Index, ks: Seq[Int]): Seq[PrAtK] = {
    val kMax = ks.max
    val res = ec.queries.map(q => q -> index.query(q, kMax, ec.sameDatabaseOnly)._1.map(_.candidate)).toMap
    Metrics.evaluate(res, ec.answers, ec.queries, ks)
  }

  def aurumTimings(ec: EvalCorpus, index: Aurum.Index,
                   queries: Seq[ColumnId], k: Int): TimingSummary =
    summarize("Aurum", queries.map(q => index.query(q, k, ec.sameDatabaseOnly)._2))

  // ---- D3L ----------------------------------------------------------------

  def buildD3L(spark: SparkSession, ec: EvalCorpus,
               model: EmbeddingModel = new WebTableEmbeddingModel()): (D3L.Index, Double) =
    timed(D3L.build(spark, ec.corpus, model))

  def d3lEffectiveness(ec: EvalCorpus, index: D3L.Index, ks: Seq[Int]): Seq[PrAtK] = {
    val kMax = ks.max
    val res = ec.queries.map(q => q -> index.queryCached(q, kMax, ec.sameDatabaseOnly).map(_.candidate)).toMap
    Metrics.evaluate(res, ec.answers, ec.queries, ks)
  }

  def d3lTimings(spark: SparkSession, ec: EvalCorpus, index: D3L.Index,
                 queries: Seq[ColumnId], k: Int): TimingSummary =
    summarize("D3L", queries.map(q => index.queryTimed(spark, ec.corpus, q, k, ec.sameDatabaseOnly)._2))

  /** Deterministic query subsample for the timing benches (full query sets
    * would make Table 2 runs needlessly long at bench scale).
    */
  def timingQueries(ec: EvalCorpus, n: Int): Seq[ColumnId] =
    ec.queries.sortBy(q => repro.corpus.Rng.mix("timing", q.key)).take(n)
}
