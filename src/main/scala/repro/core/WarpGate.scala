package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.collection.mutable

/** WarpGate configuration.
  *
  * @param threshold  minimum cosine similarity for a candidate (paper: 0.7)
  * @param sampleSize rows read per table when building the index; None = full
  *                   scan (§3.1.3 studies 10/100/1000 vs full)
  */
final case class WarpGateConfig(
    model: EmbeddingModel = new WebTableEmbeddingModel(),
    lsh: LshConfig = LshConfig(),
    threshold: Double = 0.7,
    sampleSize: Option[Int] = None,
)

/** Phase timings of one discovery query, in milliseconds. End-to-end response
  * time = loadEmbedMs (data loading + embedding inference) + lookupMs (LSH
  * probe + exact re-rank) — the decomposition Table 2 reports.
  */
final case class QueryTiming(loadEmbedMs: Double, lookupMs: Double) {
  def totalMs: Double = loadEmbedMs + lookupMs
}

/** The built index: column embeddings + SimHash buckets ([[BandIndex]]) held
  * on the driver — the in-memory LSH index the paper's system holds. Every search,
  * interactive or batch evaluation, goes through one probe: [[lookup]] for a
  * query vector, [[lookupIndexed]] for a column the index holds.
  */
final class WarpGateIndex(
    val config: WarpGateConfig,
    val lsh: SimHashLsh,
    /** The uncached melt plan the index was embedded from:
      * (database, table, column, value). Evaluating it re-runs the melt; the
      * index never reads it.
      */
    val embeddings: DataFrame,
    val columns: Array[ColumnId],
    val vectors: Array[Array[Double]],
    /** per-column sampled values, present iff config.sampleSize is set */
    val sampleCache: Map[String, Array[String]],
) extends Serializable {

  /** Per-column band hashes and L2 norms, computed once. */
  private val hashes: Array[Array[Int]] = vectors.map(lsh.bandHashes)
  private val norms: Array[Double]      = vectors.map(VectorOps.norm)

  private val bands = new BandIndex(hashes)

  /** Candidate keys, the tie-break of equal scores in [[lookup]]. */
  private val keys: Array[String] = columns.map(_.key)

  private val indexOf: Map[ColumnId, Int] = columns.iterator.zipWithIndex.toMap

  def vectorOf(id: ColumnId): Option[Array[Double]] = indexOf.get(id).map(vectors)

  /** In-memory LSH probe + exact cosine re-rank (the "index lookup" of
    * Table 2). Candidates sharing at least one band bucket with the query are
    * verified with exact cosine; candidates below the threshold, the query
    * column itself, and columns of the query's own table are dropped; top-k
    * by similarity is returned, equal scores in ascending candidate key
    * order, so the answer does not depend on the order of `columns`.
    */
  def lookup(queryVec: Array[Double], query: ColumnId, k: Int,
             sameDatabaseOnly: Boolean = false): Seq[SearchResult] =
    probe(lsh.bandHashes(queryVec), queryVec, VectorOps.norm(queryVec), query, k, sameDatabaseOnly)

  /** [[lookup]] of a column the index holds, probed with its stored vector,
    * band hashes and norm. Throws NoSuchElementException for any other column.
    */
  def lookupIndexed(query: ColumnId, k: Int, sameDatabaseOnly: Boolean = false): Seq[SearchResult] = {
    val i = indexOf.getOrElse(query,
      throw new NoSuchElementException(s"query column ${query.key} is not in the index"))
    probe(hashes(i), vectors(i), norms(i), query, k, sameDatabaseOnly)
  }

  /** Scores are `dot(q, v) / (|q| * |v|)` with both norms precomputed, which
    * is [[VectorOps.cosine]] bit for bit.
    */
  private def probe(qHashes: Array[Int], queryVec: Array[Double], qNorm: Double, query: ColumnId,
                    k: Int, sameDatabaseOnly: Boolean): Seq[SearchResult] = {
    val hits = new mutable.ArrayBuffer[(Int, Double)]()
    bands.foreachCandidate(qHashes) { i =>
      val c = columns(i)
      val inScope = !(c.database == query.database && c.table == query.table) &&
        (!sameDatabaseOnly || c.database == query.database)
      if (inScope) {
        val s = if (qNorm == 0.0 || norms(i) == 0.0) 0.0
                else VectorOps.dot(queryVec, vectors(i)) / (qNorm * norms(i))
        if (s >= config.threshold) hits += ((i, s))
      }
    }
    hits.sortInPlaceWith { case ((i, s), (j, t)) => s > t || (s == t && keys(i) < keys(j)) }
    hits.take(k).map { case (i, s) => SearchResult(query, columns(i), s) }.toSeq
  }

  /** Full-value query path (Table 2): scan the query column with Spark, embed,
    * then probe the in-memory index. Returns results plus phase timings.
    */
  def queryFull(corpus: Corpus, query: ColumnId, k: Int,
                sameDatabaseOnly: Boolean = false): (Seq[SearchResult], QueryTiming) = {
    val t0  = System.nanoTime()
    val df  = corpus.table(query.database, query.table).df
    val vec = ColumnEmbedder.embedColumnSpark(query, df, config.model)
    val t1  = System.nanoTime()
    val res = lookup(vec, query, k, sameDatabaseOnly)
    val t2  = System.nanoTime()
    (res, QueryTiming((t1 - t0) / 1e6, (t2 - t1) / 1e6))
  }

  /** Sampled query path (§4.4): embed the cached per-column sample on the
    * driver (standing in for a `LIMIT n` the warehouse answers in
    * milliseconds), then probe. Orders of magnitude cheaper than
    * [[queryFull]].
    */
  def querySampled(query: ColumnId, k: Int,
                   sameDatabaseOnly: Boolean = false): (Seq[SearchResult], QueryTiming) = {
    val sample = sampleCache.getOrElse(query.key,
      throw new IllegalStateException(s"no sample cached for ${query.key}; build with sampleSize"))
    val t0  = System.nanoTime()
    val vec = ColumnEmbedder.embedValuesLocal(sample, config.model)
    val t1  = System.nanoTime()
    val res = lookup(vec, query, k, sameDatabaseOnly)
    val t2  = System.nanoTime()
    (res, QueryTiming((t1 - t0) / 1e6, (t2 - t1) / 1e6))
  }
}

/** Index construction (the "indexing pipeline" of Figure 2). */
object WarpGate {

  /** Build the index over a corpus: melt (optionally sampled) -> embed ->
    * the column vectors on the driver, where the index computes the SimHash
    * band hashes. A full-value build is one shuffle-free Spark job
    * ([[ColumnEmbedder.columnMeans]]). A sampled build reads its sample once,
    * into `sampleCache`, and embeds each column's cached rows on the driver
    * with [[ColumnEmbedder.embedValuesLocal]] — the rows embedded for the
    * index are the rows the sampled query path embeds.
    */
  def buildIndex(spark: SparkSession, corpus: Corpus, config: WarpGateConfig): WarpGateIndex = {
    val values = corpus.meltAll(config.sampleSize)

    val (cols, vecs, sampleCache) = config.sampleSize match {
      case None =>
        val means = ColumnEmbedder.columnMeans(values, config.model)
        (means.map(_.id), means.map(_.vec), Map.empty[String, Array[String]])
      case Some(_) =>
        val sample = mutable.LinkedHashMap[ColumnId, mutable.ArrayBuffer[String]]()
        values.select("database", "table", "column", "value").collect().foreach { r =>
          sample.getOrElseUpdate(ColumnId(r.getString(0), r.getString(1), r.getString(2)),
            mutable.ArrayBuffer[String]()) += r.getString(3)
        }
        (sample.keys.toArray,
          sample.values.map(v => ColumnEmbedder.embedValuesLocal(v, config.model)).toArray,
          sample.iterator.map { case (id, v) => id.key -> v.toArray }.toMap)
    }

    new WarpGateIndex(config, new SimHashLsh(config.model.dim, config.lsh), values, cols, vecs,
      sampleCache)
  }
}
