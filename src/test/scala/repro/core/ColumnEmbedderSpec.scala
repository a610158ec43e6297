package repro.core

import org.apache.spark.ml.linalg.Vector
import org.apache.spark.sql.functions._
import repro.SparkSpec

class ColumnEmbedderSpec extends SparkSpec {

  private val model = new WebTableEmbeddingModel()

  private lazy val (corpus, spec) = repro.TestCorpora.tiny(spark)

  test("embedColumns yields one row per column") {
    val emb = ColumnEmbedder.embedColumns(corpus.meltAll(None), model)
    assert(emb.count() == spec.tables.map(_.columns.size).sum)
  }

  test("embedColumns counts values per column") {
    val emb = ColumnEmbedder.embedColumns(corpus.meltAll(None), model)
    val n = emb.filter(col("table") === "accounts" && col("column") === "company")
      .select("nValues").collect()(0).getLong(0)
    assert(n == 400L)
  }

  test("embedColumns vectors have the model dimension") {
    val emb = ColumnEmbedder.embedColumns(corpus.meltAll(None), model)
    val v = emb.select("vec").collect()(0).getAs[Vector]("vec")
    assert(v.size == model.dim)
  }

  test("distributed mean equals driver-side mean of the same values") {
    val id     = ColumnId("dbA", "leads", "firm")
    val table  = corpus.table("dbA", "leads").df
    val sparkVec = ColumnEmbedder.embedColumnSpark(id, table, model)
    val values = table.select(col("firm").cast("string")).collect().map(_.getString(0))
    val local  = ColumnEmbedder.embedValuesLocal(values.toSeq, model)
    assert(VectorOps.cosine(sparkVec, local) > 0.999999)
    sparkVec.zip(local).foreach { case (a, b) => assert(math.abs(a - b) < 1e-9) }
  }

  test("embedColumnSpark with sampling embeds only the sample") {
    val id    = ColumnId("dbA", "leads", "firm")
    val table = corpus.table("dbA", "leads").df
    val sampled = ColumnEmbedder.embedColumnSpark(id, table, model, Some(20))
    val values  = table.limit(20).select(col("firm").cast("string"))
      .collect().map(_.getString(0))
    val local = ColumnEmbedder.embedValuesLocal(values.toSeq, model)
    sampled.zip(local).foreach { case (a, b) => assert(math.abs(a - b) < 1e-9) }
  }

  test("columns of overlapping intervals embed close, cross-domain far") {
    val emb = ColumnEmbedder.embedColumns(corpus.meltAll(None), model)
      .collect()
      .map(r => (r.getString(1), r.getString(2)) -> r.getAs[Vector]("vec").toArray)
      .toMap
    val company = emb(("accounts", "company"))
    val firm    = emb(("leads", "firm"))
    val org     = emb(("orgs", "organization"))
    val date    = emb(("accounts", "created_at"))
    assert(VectorOps.cosine(company, firm) > 0.7)
    assert(VectorOps.cosine(company, org) > 0.7)
    assert(VectorOps.cosine(company, date) < 0.5)
  }

  test("accumulator means equal driver-side means across partitions") {
    val melted = corpus.meltAll(None).repartition(4)
    assert(melted.rdd.getNumPartitions >= 3)
    val values = melted.collect()
      .groupBy(r => ColumnId(r.getString(0), r.getString(1), r.getString(2)))
      .map { case (id, rows) => id -> rows.map(_.getString(3)).toSeq }
    val means = ColumnEmbedder.columnMeans(melted, model)
    assert(means.map(_.id).toSet == values.keySet)
    means.foreach { m =>
      assert(m.nValues == values(m.id).size.toLong)
      val local = ColumnEmbedder.embedValuesLocal(values(m.id), model)
      m.vec.zip(local).foreach { case (a, b) => assert(math.abs(a - b) < 1e-12, m.id.key) }
    }
  }

  test("embedColumnSpark of an empty column is the zero vector") {
    val id    = ColumnId("dbA", "leads", "firm")
    val empty = corpus.table("dbA", "leads").df.limit(0)
    val vec   = ColumnEmbedder.embedColumnSpark(id, empty, model)
    assert(vec.length == model.dim && vec.forall(_ == 0.0))
  }

  test("sampled embeddings stay close to full embeddings (robustness)") {
    val id    = ColumnId("dbA", "accounts", "company")
    val table = corpus.table("dbA", "accounts").df
    val full    = ColumnEmbedder.embedColumnSpark(id, table, model)
    val sampled = ColumnEmbedder.embedColumnSpark(id, table, model, Some(100))
    assert(VectorOps.cosine(full, sampled) > 0.9)
  }
}
