package repro.core

import org.apache.spark.ml.linalg.Vector
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
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

/** The built index: column embeddings + SimHash buckets held as driver
  * arrays — the in-memory LSH index the paper's system holds. Every search,
  * interactive or batch evaluation, goes through [[lookup]].
  */
final class WarpGateIndex(
    val config: WarpGateConfig,
    val lsh: SimHashLsh,
    /** The uncached embedding plan the index was collected from:
      * (database, table, column, nValues, vec: ml.Vector). Evaluating it
      * re-runs the melt and the embedding; the index never reads it.
      */
    val embeddings: DataFrame,
    val columns: Array[ColumnId],
    val vectors: Array[Array[Double]],
    /** per-column sampled values, present iff config.sampleSize is set */
    val sampleCache: Map[String, Array[String]],
) extends Serializable {

  /** bucket key (band, hash) -> column indices */
  private val buckets: mutable.LongMap[mutable.ArrayBuffer[Int]] = {
    val m = new mutable.LongMap[mutable.ArrayBuffer[Int]]()
    var i = 0
    while (i < columns.length) {
      val hashes = lsh.bandHashes(vectors(i))
      var b = 0
      while (b < hashes.length) {
        m.getOrElseUpdate((b.toLong << 32) | (hashes(b).toLong & 0xffffffffL),
          new mutable.ArrayBuffer[Int]) += i
        b += 1
      }
      i += 1
    }
    m
  }

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
             sameDatabaseOnly: Boolean = false): Seq[SearchResult] = {
    val hashes = lsh.bandHashes(queryVec)
    val seen   = new java.util.BitSet(columns.length)
    val hits   = new mutable.ArrayBuffer[(Int, Double)]()
    var b = 0
    while (b < hashes.length) {
      buckets.get((b.toLong << 32) | (hashes(b).toLong & 0xffffffffL)).foreach { ids =>
        ids.foreach { i =>
          if (!seen.get(i)) {
            seen.set(i)
            val c = columns(i)
            val inScope = !(c.database == query.database && c.table == query.table) &&
              (!sameDatabaseOnly || c.database == query.database)
            if (inScope) {
              val s = VectorOps.cosine(queryVec, vectors(i))
              if (s >= config.threshold) hits += ((i, s))
            }
          }
        }
      }
      b += 1
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
    * collect the column vectors to the driver, where the index computes the
    * SimHash band hashes.
    */
  def buildIndex(spark: SparkSession, corpus: Corpus, config: WarpGateConfig): WarpGateIndex = {
    val values = corpus.meltAll(config.sampleSize)
    val embDf  = ColumnEmbedder.embedColumns(values, config.model)

    val rows = embDf.select("database", "table", "column", "vec").collect()
    val cols = rows.map(r => ColumnId(r.getString(0), r.getString(1), r.getString(2)))
    val vecs = rows.map(_.getAs[Vector]("vec").toArray)

    val sampleCache: Map[String, Array[String]] = config.sampleSize match {
      case None => Map.empty
      case Some(n) =>
        corpus.meltAll(Some(n))
          .groupBy("database", "table", "column")
          .agg(collect_list(col("value")).as("vals"))
          .collect()
          .map { r =>
            val key = ColumnId(r.getString(0), r.getString(1), r.getString(2)).key
            key -> r.getSeq[String](3).toArray
          }
          .toMap
    }

    new WarpGateIndex(config, new SimHashLsh(config.model.dim, config.lsh), embDf, cols, vecs,
      sampleCache)
  }
}
