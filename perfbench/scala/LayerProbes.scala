package perfbench

import org.apache.spark.ml.linalg.Vector
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._
import repro.corpus.EvalCorpus
import scala.collection.mutable

/** Per-layer measurements of the traced run, all taken from outside the
  * program: each layer is driven through its public entry point, one layer
  * at a time, and its Spark work is read from the tracer's listener.
  */
final class LayerProbes(
    spark: SparkSession,
    tr: Tracer,
    ec: EvalCorpus,
    w: Workload,
    outcome: Outcome,
    layer: mutable.Map[String, (Double, String)],
) {
  private val cfg       = w.config
  private val cores     = spark.sparkContext.defaultParallelism
  /** The sample size the sample layer is probed with on a full-value index. */
  private val probeSize = w.sampleSize.getOrElse(100)

  private def storageMb: Double =
    spark.sparkContext.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum / 1e6

  private def noop(df: DataFrame): Unit = df.write.format("noop").mode("overwrite").save()

  /** WarpGate.buildIndex, stage by stage: melt, embed, band hashes + cache +
    * collect, the bucket map, and (sampled indexes) the sample cache kept on
    * the Spark driver. Each stage is forced on its own, so a stage's time is
    * the work of that stage alone — except embed, which Spark fuses with
    * melt: embed.s includes a second melt, and embed.self_s = embed.s -
    * melt.s is only an estimate of the embedding work.
    */
  def reenactBuild(): WarpGateIndex = {
    val (values, planS) = tr.timed("melt_plan") {
      val v = ec.corpus.meltAll(cfg.sampleSize)
      v.queryExecution.executedPlan
      v
    }
    val (_, meltS) = tr.timed("melt")(noop(values))

    val (embDf, embedS) = tr.timed("embed") {
      val e = ColumnEmbedder.embedColumns(values, cfg.model).cache()
      e.count()
      e
    }
    val cells = embDf.agg(sum(col("nValues"))).head().getLong(0)

    val lsh    = new SimHashLsh(cfg.model.dim, cfg.lsh)
    val before = storageMb
    val ((cols, vecs, withBands), collectS) = tr.timed("index_collect") {
      val wb   = embDf.withColumn("bands", lsh.bandHashesUdf(col("vec"))).cache()
      val rows = wb.select("database", "table", "column", "vec").collect()
      (rows.map(r => ColumnId(r.getString(0), r.getString(1), r.getString(2))),
        rows.map(_.getAs[Vector]("vec").toArray), wb)
    }
    val indexMb = storageMb - before

    val (samples, sampleS) = tr.timed("sample")(sampleCache(probeSize))
    val (index, bucketS) = tr.timed("bucket_build") {
      new WarpGateIndex(cfg, lsh, withBands, cols, vecs,
        if (cfg.sampleSize.isDefined) samples else Map.empty)
    }
    embDf.unpersist()

    val m  = tr.counts("melt")
    val e  = tr.counts("embed")
    val sc = tr.counts("sample")
    layer("melt.s")        = (meltS, "s")
    layer("melt.plan_s")   = (planS, "s")
    layer("melt.cells")    = (cells.toDouble, "count")
    layer("melt.jobs")     = (m.jobs.toDouble, "count")
    layer("melt.tasks")    = (m.tasks.toDouble, "count")
    layer("sample.s")      = (sampleS, "s")
    layer("sample.jobs")   = (sc.jobs.toDouble, "count")
    layer("embed.s")       = (embedS, "s")
    layer("embed.self_s")  = (embedS - meltS, "s")
    layer("embed.cells_per_s")      = (cells / embedS, "1/s")
    layer("embed.task_busy_s")      = (e.taskRunMs / 1e3, "s")
    layer("embed.core_util")        = (e.taskRunMs / 1e3 / (embedS * cores), "ratio")
    layer("embed.shuffle_write_mb") = (e.shuffleWriteBytes / 1e6, "MB")
    layer("embed.gc_s")             = (e.gcMs / 1e3, "s")
    layer("index.collect_s")        = (collectS, "s")
    layer("index.bucket_build_s")   = (bucketS, "s")
    layer("index.columns")          = (cols.length.toDouble, "count")
    layer("index.cached_mb")        = (indexMb, "MB")
    index
  }

  /** The per-column sample exactly as WarpGate.buildIndex collects it. */
  private def sampleCache(n: Int): Map[String, Array[String]] =
    ec.corpus.meltAll(Some(n))
      .groupBy("database", "table", "column")
      .agg(collect_list(col("value")).as("vals"))
      .collect()
      .map(r => ColumnId(r.getString(0), r.getString(1), r.getString(2)).key -> r.getSeq[String](3).toArray)
      .toMap

  /** The re-enacted index must be the index buildIndex builds: same
    * columns, equal vectors, and the same top-k for every query. Otherwise
    * the layer numbers above describe some other program.
    */
  def compareIndexes(rebuilt: WarpGateIndex, built: WarpGateIndex): Unit = {
    outcome.check("re-enacted index has buildIndex's columns") {
      rebuilt.columns.toSet == built.columns.toSet && rebuilt.columns.length == built.columns.length
    }
    outcome.check("re-enacted index vectors equal buildIndex's") {
      built.columns.forall { c =>
        val a = rebuilt.vectorOf(c).get; val b = built.vectorOf(c).get
        a.indices.forall(i => math.abs(a(i) - b(i)) <= 1e-12)
      }
    }
    outcome.check("re-enacted index gives buildIndex's top-k for every query") {
      ec.queries.forall { q =>
        val v = built.vectorOf(q).get
        rebuilt.lookup(v, q, Main.K, ec.sameDatabaseOnly).map(_.candidate) ==
          built.lookup(v, q, Main.K, ec.sameDatabaseOnly).map(_.candidate)
      }
    }
  }

  /** The lookup layer on the built index, with each query's own index
    * vector as the probe: latency, and the probe's work counted by
    * replaying it over a bucket map rebuilt from the index's public vectors
    * and hash planes. An exact scan over the same vectors gives the recall
    * the LSH probe loses.
    */
  def lookupLayer(index: WarpGateIndex): Unit = {
    val n       = index.columns.length
    val hashes  = index.vectors.map(index.lsh.bandHashes)
    val buckets = mutable.HashMap[(Int, Int), mutable.ArrayBuffer[Int]]()
    for (i <- 0 until n; (h, b) <- hashes(i).zipWithIndex)
      buckets.getOrElseUpdate((b, h), mutable.ArrayBuffer[Int]()) += i
    val tau = index.config.threshold
    val sdo = ec.sameDatabaseOnly
    def inScope(q: ColumnId, c: ColumnId) =
      !(c.database == q.database && c.table == q.table) && (!sdo || c.database == q.database)

    var candidates, verified, aboveTau, returned = 0L
    var hit, exactTotal = 0L
    val queries = ec.queries.map(q => q -> index.vectorOf(q).get)
    queries.foreach { case (q, v) =>
      val cand = index.lsh.bandHashes(v).zipWithIndex.flatMap { case (h, b) =>
        buckets.getOrElse((b, h), Nil)
      }.distinct
      val ver   = cand.filter(i => inScope(q, index.columns(i)))
      val above = ver.count(i => VectorOps.cosine(v, index.vectors(i)) >= tau)
      val got   = index.lookup(v, q, Main.K, sdo).map(_.candidate)
      candidates += cand.size; verified += ver.size; aboveTau += above; returned += got.size
      outcome.check(s"lookup of $q returns min(k, candidates above tau)")(got.size == math.min(Main.K, above))
      val exact = exactScan(index, q, v, tau, inScope)
      exactTotal += exact.size
      hit += got.count(exact.toSet)
    }

    val lookupUs = timedRounds(queries) { case (q, v) => index.lookup(v, q, Main.K, sdo) }
    val exactUs  = timedRounds(queries) { case (q, v) => exactScan(index, q, v, tau, inScope) }
    val nq = queries.size.toDouble
    layer("index.buckets")          = (buckets.size.toDouble, "count")
    layer("lookup.us_p50")          = (Stats.median(lookupUs), "us")
    layer("lookup.candidates")      = (candidates / nq, "count")
    layer("lookup.verified")        = (verified / nq, "count")
    layer("lookup.above_tau")       = (aboveTau / nq, "count")
    layer("lookup.returned")        = (returned / nq, "count")
    layer("lookup.useful_ratio")    = (if (verified == 0) 0.0 else aboveTau.toDouble / verified, "ratio")
    layer("lookup.recall_vs_exact") = (if (exactTotal == 0) 1.0 else hit.toDouble / exactTotal, "ratio")
    layer("lookup.exact_scan_us_p50") = (Stats.median(exactUs), "us")
  }

  /** Top-k over every in-scope column by exact cosine, at or above tau. */
  private def exactScan(index: WarpGateIndex, q: ColumnId, v: Array[Double], tau: Double,
                        inScope: (ColumnId, ColumnId) => Boolean): Seq[ColumnId] =
    index.columns.indices.iterator
      .filter(i => inScope(q, index.columns(i)))
      .map(i => (i, VectorOps.cosine(v, index.vectors(i))))
      .filter(_._2 >= tau)
      .toSeq.sortBy(-_._2).take(Main.K).map(p => index.columns(p._1))

  /** Per-call microseconds of `f` over every query, for at least 20 rounds
    * and 0.5 s, after one untimed round.
    */
  private def timedRounds[Q](queries: Seq[Q])(f: Q => Any): Seq[Double] = {
    queries.foreach(f)
    val out   = mutable.ArrayBuffer[Double]()
    val start = System.nanoTime()
    var r     = 0
    while (r < 20 || System.nanoTime() - start < 500000000L) {
      queries.foreach { q => val t0 = System.nanoTime(); f(q); out += (System.nanoTime() - t0) / 1e3 }
      r += 1
    }
    out.toSeq
  }

  /** Columns whose sampled-index vector differs, beyond float tolerance,
    * from the embedding of the sample the query path reads for it. Reported
    * as found; a non-zero count means the two `limit` scans picked different
    * rows. A full-value workload builds a sampled index for this.
    */
  def sampleMismatch(index: WarpGateIndex): Unit = {
    val sampled =
      if (index.config.sampleSize.isDefined) index
      else tr.timed("sampled_build")(WarpGate.buildIndex(spark, ec.corpus,
        cfg.copy(sampleSize = Some(probeSize))))._1
    val mismatched = sampled.columns.indices.count { i =>
      val v = ColumnEmbedder.embedValuesLocal(sampled.sampleCache(sampled.columns(i).key), cfg.model)
      val u = sampled.vectors(i)
      u.indices.exists(j => math.abs(u(j) - v(j)) > 1e-9)
    }
    layer("sample.mismatch_cols") = (mismatched.toDouble, "count")
  }

  /** Distinct tokens the index build embeds, to set against the model's
    * 400k-entry token-vector cache.
    */
  def distinctTokens(): Unit = {
    val tok = udf((v: String) => Tokenizer.tokenize(v))
    val n = ec.corpus.meltAll(cfg.sampleSize)
      .select(explode(tok(col("value"))).as("t")).distinct().count()
    layer("embed.distinct_tokens") = (n.toDouble, "count")
  }
}
