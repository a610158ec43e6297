package perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.baselines.{Aurum, D3L}
import repro.core._
import repro.corpus.{EvalCorpus, Testbeds}
import repro.eval.{EvalRunner, Metrics}
import scala.collection.mutable
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import scala.util.Random

/** One benchmark workload: a generated corpus and the WarpGate configuration
  * that is built and queried over it. The traced run also builds Aurum and
  * D3L over the same corpus.
  */
final case class Workload(name: String, xsRowScale: Double, sampleSize: Option[Int]) {
  def config: WarpGateConfig = WarpGateConfig(sampleSize = sampleSize)
  /** IntegrationSpec asserts its Figure 4 orderings on a full-value index. */
  def paperOrderings: Boolean = sampleSize.isEmpty
}

object Workload {
  val all: Seq[Workload] = Seq(
    Workload("xs-systems", 1.0, None),
    Workload("xs-interactive", 0.25, Some(100)),
  )
}

final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean)

object Args {
  val usage = "usage: --workload <name> --seed <n> --seconds <n> --trace <0|1>"

  def parse(argv: Seq[String]): Either[String, Args] = {
    val kv = argv.grouped(2).collect { case Seq(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.get(k).toRight(s"missing --$k; $usage")
    for {
      wn <- need("workload")
      w  <- Workload.all.find(_.name == wn)
              .toRight(s"unknown workload $wn; known: ${Workload.all.map(_.name).mkString(", ")}")
      s  <- need("seed").flatMap(x => x.toLongOption.toRight(s"bad --seed $x"))
      n  <- need("seconds").flatMap(x => x.toIntOption.filter(_ > 0).toRight(s"bad --seconds $x"))
      t  <- need("trace").flatMap {
              case "0" => Right(false); case "1" => Right(true); case x => Left(s"bad --trace $x")
            }
    } yield Args(w, s, n, t)
  }
}

/** Operations attempted and failed. A thrown error or a wrong answer fails
  * its operation; the reason is kept for the log.
  */
final class Outcome {
  var attempted = 0L
  var failed    = 0L
  val problems  = mutable.ArrayBuffer[String]()

  def check(what: String)(ok: => Boolean): Unit = {
    attempted += 1
    val problem = try { if (ok) None else Some(what) } catch {
      case e: Exception => Some(s"$what threw $e")
    }
    problem.foreach { p => failed += 1; problems += p }
  }
}

object Stats {
  /** Nearest-rank percentile, p in (0, 100]. */
  def pct(xs: collection.Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    val s = xs.sorted
    s(math.max(0, math.ceil(p / 100.0 * s.size).toInt - 1))
  }

  def median(xs: collection.Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }
}

object Main {
  val Ks             = Seq(1, 5, 10)
  val K              = 10
  val BatchRepeats   = 5
  val MinQueryRounds = 3
  val D3lTimedQueries = 10

  def main(argv: Array[String]): Unit = {
    val args = Args.parse(argv.toSeq) match {
      case Right(a) => a
      case Left(msg) => System.err.println(msg); sys.exit(2)
    }
    val line = new Run(args).execute()
    println(line)
  }
}

/** One run of one workload: set up, build, evaluate, query, report. */
final class Run(args: Args) {
  import Main._

  private val w       = args.workload
  private val outcome = new Outcome
  private val e2e     = mutable.LinkedHashMap[String, (Double, String)]()
  private val layer   = mutable.LinkedHashMap[String, (Double, String)]()

  private def log(msg: String): Unit = System.err.println(s"[perfbench] $msg")

  def execute(): String = {
    val gc0 = gcMillis()
    val (spark, sessionS) = timeIt(startSession())
    try {
      val tracer = new Tracer(spark, args.trace)
      val ec     = setUp(spark, sessionS)
      if (args.trace) traced(spark, tracer, ec, gc0) else untraced(spark, tracer, ec)
    } finally spark.stop()
    outcome.problems.foreach(p => log(s"FAILED: $p"))
    val metrics = if (args.trace) layer else e2e
    metrics.foreach { case (k, (v, u)) => log(f"$k%-28s $v%.6g $u") }
    Json.obj(Seq(
      "correct"   -> (outcome.failed == 0),
      "attempted" -> outcome.attempted,
      "failed"    -> outcome.failed,
      "metrics"   -> Json.Raw(Json.obj(metrics.toSeq.map { case (k, (v, u)) =>
        k -> Json.Raw(Json.obj(Seq("value" -> v, "unit" -> u)))
      })),
    ))
  }

  // ---- set-up: the warehouse, not the system -------------------------------

  private def startSession(): SparkSession = {
    val dir   = sys.props.getOrElse("perfbench.work", "perfbench-work")
    val cores = Runtime.getRuntime.availableProcessors()
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName(s"perfbench-${w.name}")
      .config("spark.sql.shuffle.partitions", 64)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$dir/spark-local")
      .config("spark.sql.warehouse.dir", s"$dir/warehouse")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  /** Generate the corpus and cache every table, as BenchContext does; the
    * generator stands in for the warehouse's storage. setup_s is session
    * start plus this one cold generate-and-cache.
    */
  private def setUp(spark: SparkSession, sessionS: Double): EvalCorpus = {
    val (ec, cacheS) = timeIt {
      val raw = Testbeds.nextiaJd(spark, "XS", w.xsRowScale)
      val cached = raw.copy(corpus = raw.corpus.copy(tables = raw.corpus.tables.map(t =>
        t.copy(df = t.df.persist(StorageLevel.MEMORY_AND_DISK)))))
      cacheAll(cached.corpus.tables.map(_.df))
      cached
    }
    log(s"setup: session ${fmt(sessionS)} s, generate+cache ${fmt(cacheS)} s")
    e2e("setup_s") = (sessionS + cacheS, "s")
    layer("corpus.cached_mb") = (storageMb(spark), "MB")
    layer("spark.storage_mem_mb") =
      (spark.sparkContext.getExecutorMemoryStatus.values.map(_._1).sum / 1e6, "MB")
    ec
  }

  /** Materialize every table's cache, one job per table, as many at a time
    * as there are cores: each job alone has too few tasks to fill them.
    */
  private def cacheAll(dfs: Seq[org.apache.spark.sql.DataFrame]): Unit = {
    val pool = java.util.concurrent.Executors.newFixedThreadPool(Runtime.getRuntime.availableProcessors())
    try {
      implicit val ctx: ExecutionContext = ExecutionContext.fromExecutorService(pool)
      Await.result(Future.traverse(dfs)(df => Future(df.count())), Duration.Inf)
    } finally pool.shutdown()
  }

  // ---- end-to-end run --------------------------------------------------------

  private def untraced(spark: SparkSession, tr: Tracer, ec: EvalCorpus): Unit = {
    val (wg, wgS) = tr.timed("wg_build")(WarpGate.buildIndex(spark, ec.corpus, w.config))
    e2e("wg_build_s") = (wgS, "s")
    e2e("cached_mb")  = (storageMb(spark), "MB")

    val passes = (1 to BatchRepeats).map { _ =>
      tr.timed("batch")(EvalRunner.warpGateEffectiveness(spark, ec, wg, Ks))
    }
    val wgPr = passes.head._1
    e2e("batch_eval_s") = (Stats.median(passes.map(_._2)), "s")
    checkWarpGate(wgPr)
    outcome.check("batch passes give the same P/R")(passes.forall(_._1 == wgPr))

    val loop = queryLoop(tr, ec, wg)
    e2e("query_p50_ms")  = (Stats.median(loop.totalMs), "ms")
    e2e("query_p90_ms")  = (Stats.pct(loop.totalMs, 90), "ms")
    e2e("recall_at_1")   = (wgPr.find(_.k == 1).get.recall, "ratio")
    e2e("recall_at_10")  = (wgPr.find(_.k == 10).get.recall, "ratio")
    e2e("ok_frac")       = (1.0 - outcome.failed.toDouble / outcome.attempted, "ratio")
  }

  // ---- traced run ------------------------------------------------------------

  private def traced(spark: SparkSession, tr: Tracer, ec: EvalCorpus, gc0: Long): Unit = {
    val probes = new LayerProbes(spark, tr, ec, w, outcome, layer)
    // The re-enactment is the first code in this JVM to embed anything, so
    // its layers see the same cold token cache as wg_build_s does.
    val rebuilt = probes.reenactBuild()
    val (wg, warmS) = tr.timed("wg_build")(WarpGate.buildIndex(spark, ec.corpus, w.config))
    layer("wg_build_warm_s") = (warmS, "s")
    val b = tr.counts("wg_build")
    layer("spark.wg_build_jobs")   = (b.jobs.toDouble, "count")
    layer("spark.wg_build_stages") = (b.stages.toDouble, "count")
    layer("spark.wg_build_tasks")  = (b.tasks.toDouble, "count")
    probes.compareIndexes(rebuilt, wg)

    val (wgPr, _) = tr.timed("batch")(EvalRunner.warpGateEffectiveness(spark, ec, wg, Ks))
    checkWarpGate(wgPr)
    val ba = tr.counts("batch")
    layer("batch.s")                = (tr.seconds("batch"), "s")
    layer("batch.jobs")             = (ba.jobs.toDouble, "count")
    layer("batch.stages")           = (ba.stages.toDouble, "count")
    layer("batch.tasks")            = (ba.tasks.toDouble, "count")
    layer("batch.shuffle_write_mb") = (ba.shuffleWriteBytes / 1e6, "MB")

    val loop = queryLoop(tr, ec, wg)
    val q = tr.counts("query")
    val nTraced = tr.spans.count(_.name == "query")
    layer("query.load_embed_ms_p50") = (Stats.median(loop.loadEmbedMs), "ms")
    layer("query.lookup_ms_p50")     = (Stats.median(loop.lookupMs), "ms")
    layer("query.jobs")              = (q.jobs.toDouble / nTraced, "count")
    layer("query.tasks")             = (q.tasks.toDouble / nTraced, "count")
    layer("query.samples")           = (loop.totalMs.size.toDouble, "count")
    layer("trace.overhead_frac") =
      (Stats.median(loop.tracedRoundS) / Stats.median(loop.plainRoundS) - 1.0, "ratio")

    baselines(spark, tr, ec, wgPr)
    probes.lookupLayer(wg)
    probes.sampleMismatch(wg)
    probes.distinctTokens()

    layer("jvm.gc_s") = ((gcMillis() - gc0) / 1e3, "s")
    System.gc()
    layer("jvm.heap_after_gc_mb") =
      (ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1e6, "MB")
    val out = java.nio.file.Paths.get(sys.props.getOrElse("perfbench.work", "perfbench-work"),
      "traces", s"${w.name}-seed${args.seed}.jsonl")
    tr.writeSpans(out)
    log(s"spans written to $out")
  }

  /** Aurum and D3L on the same corpus: builds, D3L's Table 2 query path,
    * and their answers, which also settle the orderings against WarpGate.
    */
  private def baselines(spark: SparkSession, tr: Tracer, ec: EvalCorpus,
                        wgPr: Seq[Metrics.PrAtK]): Unit = {
    val (au, auS) = tr.timed("aurum_build")(Aurum.build(spark, ec.corpus))
    val (d3, d3S) = tr.timed("d3l_build")(D3L.build(spark, ec.corpus))
    val auPr = EvalRunner.aurumEffectiveness(ec, au, Ks)
    val d3Pr = EvalRunner.d3lEffectiveness(ec, d3, Ks)
    checkBaselines(wgPr, auPr, d3Pr)
    val d3lMs = d3lLoop(spark, tr, ec, d3)

    val a = tr.counts("aurum_build")
    layer("aurum.build_s")          = (auS, "s")
    layer("aurum.jobs")             = (a.jobs.toDouble, "count")
    layer("aurum.tasks")            = (a.tasks.toDouble, "count")
    layer("aurum.shuffle_write_mb") = (a.shuffleWriteBytes / 1e6, "MB")
    layer("aurum.edges")            = (au.graph.valuesIterator.map(_.size).sum / 2.0, "count")
    layer("aurum.recall_at_10")     = (auPr.find(_.k == K).get.recall, "ratio")
    val d = tr.counts("d3l_build")
    layer("d3l.build_s")      = (d3S, "s")
    layer("d3l.query_ms_p50") = (Stats.median(d3lMs), "ms")
    layer("d3l.jobs")         = (d.jobs.toDouble, "count")
    layer("d3l.tasks")        = (d.tasks.toDouble, "count")
    layer("d3l.query_jobs")   = (tr.counts("d3l_query").jobs.toDouble / d3lMs.size, "count")
    layer("d3l.recall_at_10") = (d3Pr.find(_.k == K).get.recall, "ratio")
  }

  // ---- correctness -------------------------------------------------------------

  private def checkPr(system: String, pr: Seq[Metrics.PrAtK]): Unit = {
    val want = Expected.pr(w.name, system)
    outcome.check(s"$system P/R ${Expected.render(pr)} != seed ${Expected.render(want)}") {
      Expected.render(pr) == Expected.render(want)
    }
  }

  private def recall(pr: Seq[Metrics.PrAtK], k: Int): Double = pr.find(_.k == k).get.recall

  /** WarpGate's P/R against the values recorded at the seed, and on
    * workloads that ask for it, IntegrationSpec's assertions on WarpGate
    * alone.
    */
  private def checkWarpGate(wgPr: Seq[Metrics.PrAtK]): Unit = {
    checkPr("WarpGate", wgPr)
    if (w.paperOrderings) {
      outcome.check("WarpGate recall@10 > 0.6")(recall(wgPr, 10) > 0.6)
      outcome.check("WarpGate precision@1 > 0.6")(wgPr.find(_.k == 1).get.precision > 0.6)
      outcome.check("WarpGate recall grows with k") {
        val rs = Ks.map(recall(wgPr, _)); rs == rs.sorted
      }
    }
  }

  /** The baselines' P/R against the seed's, and IntegrationSpec's orderings
    * of WarpGate against them.
    */
  private def checkBaselines(wgPr: Seq[Metrics.PrAtK], auPr: Seq[Metrics.PrAtK],
                             d3Pr: Seq[Metrics.PrAtK]): Unit = {
    checkPr("Aurum", auPr)
    checkPr("D3L", d3Pr)
    if (w.paperOrderings) {
      outcome.check("WarpGate recall >= Aurum recall at every k")(
        Ks.forall(k => recall(wgPr, k) >= recall(auPr, k)))
      outcome.check("WarpGate recall@10 >= D3L recall@10 - 0.02")(
        recall(wgPr, 10) >= recall(d3Pr, 10) - 0.02)
      outcome.check("recall grows with k for Aurum and D3L")(
        Seq(auPr, d3Pr).forall { pr => val rs = Ks.map(recall(pr, _)); rs == rs.sorted })
    }
  }

  // ---- query loops -------------------------------------------------------------

  final class LoopStats {
    val totalMs, loadEmbedMs, lookupMs = mutable.ArrayBuffer[Double]()
    val tracedRoundS, plainRoundS      = mutable.ArrayBuffer[Double]()
  }

  /** Closed loop, one client: the workload's query path (queryFull on a
    * full-value index, querySampled on a sampled one) over every query in a
    * seeded order per round. The first round is warm-up; it is not timed and
    * its answers are the reference every later answer must equal. Timed
    * rounds go on until `--seconds` have passed and at least MinQueryRounds
    * (four when traced: traced and untraced rounds alternate, and the
    * difference is the tracing overhead) are done.
    */
  private def queryLoop(tr: Tracer, ec: EvalCorpus, wg: WarpGateIndex): LoopStats = {
    val rng = new Random(args.seed)
    def ask(q: ColumnId): (Seq[SearchResult], QueryTiming) =
      if (w.sampleSize.isDefined) wg.querySampled(q, K, ec.sameDatabaseOnly)
      else wg.queryFull(ec.corpus, q, K, ec.sameDatabaseOnly)

    val reference = mutable.Map[ColumnId, Seq[ColumnId]]()
    rng.shuffle(ec.queries).foreach { q =>
      outcome.check(s"warm-up query $q") { reference(q) = ask(q)._1.map(_.candidate); true }
    }
    val stats     = new LoopStats
    val minRounds = if (args.trace) 4 else MinQueryRounds
    val start     = System.nanoTime()
    var round     = 0
    while (round < minRounds || System.nanoTime() - start < args.seconds * 1000000000L) {
      val tracedRound = args.trace && round % 2 == 0
      if (tracedRound) tr.attach() else if (args.trace) tr.detach()
      val t0 = System.nanoTime()
      rng.shuffle(ec.queries).foreach { q =>
        outcome.check(s"query $q answer differs from its warm-up answer") {
          val ((res, t), _) = tr.timed("query")(ask(q))
          stats.totalMs += t.totalMs
          stats.loadEmbedMs += t.loadEmbedMs
          stats.lookupMs += t.lookupMs
          reference.get(q).contains(res.map(_.candidate))
        }
      }
      val s = (System.nanoTime() - t0) / 1e9
      if (tracedRound) stats.tracedRoundS += s else stats.plainRoundS += s
      round += 1
    }
    if (args.trace) tr.attach()
    log(s"query loop: $round rounds, ${stats.totalMs.size} timed queries")
    stats
  }

  /** D3L's Table 2 path (re-profile the query column, then rank) for the
    * first D3lTimedQueries of a seeded order, after one warm-up query. Each
    * answer must equal D3L's answer from its stored profile.
    */
  private def d3lLoop(spark: SparkSession, tr: Tracer, ec: EvalCorpus, d3: D3L.Index): Seq[Double] = {
    val order = new Random(args.seed + 1).shuffle(ec.queries)
    val out   = mutable.ArrayBuffer[Double]()
    order.take(D3lTimedQueries + 1).zipWithIndex.foreach { case (q, i) =>
      outcome.check(s"D3L query $q answer differs from its stored-profile answer") {
        val ((res, t), _) =
          if (i == 0) (d3.queryTimed(spark, ec.corpus, q, K, ec.sameDatabaseOnly), 0.0)
          else tr.timed("d3l_query")(d3.queryTimed(spark, ec.corpus, q, K, ec.sameDatabaseOnly))
        if (i > 0) out += t.totalMs
        res.map(_.candidate) == d3.queryCached(q, K, ec.sameDatabaseOnly).map(_.candidate)
      }
    }
    out.toSeq
  }

  // ---- helpers -----------------------------------------------------------------

  private def timeIt[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  private def storageMb(spark: SparkSession): Double =
    spark.sparkContext.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum / 1e6

  private def gcMillis(): Long = {
    import scala.jdk.CollectionConverters._
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum
  }

  private def fmt(s: Double): String = f"$s%.2f"
}
