package perfbench

import org.apache.spark.BusAccess
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import scala.collection.mutable

/** Spark work attributed to one job group. */
final class SparkCounts {
  var jobs = 0L
  var stages = 0L
  var tasks = 0L
  var taskRunMs = 0L
  var gcMs = 0L
  var shuffleWriteBytes = 0L

  def +=(o: SparkCounts): Unit = {
    jobs += o.jobs; stages += o.stages; tasks += o.tasks
    taskRunMs += o.taskRunMs; gcMs += o.gcMs; shuffleWriteBytes += o.shuffleWriteBytes
  }
}

/** Counts jobs, executed stages and tasks per job group. Stages and tasks
  * carry no group of their own, so a stage takes the group of the properties
  * it was submitted with and a task that of its stage.
  */
final class GroupListener extends SparkListener {
  private val stageGroup = mutable.HashMap[Int, String]()
  private val counts     = mutable.HashMap[String, SparkCounts]()

  private def group(props: java.util.Properties): String =
    Option(props).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")

  private def of(g: String): SparkCounts = counts.getOrElseUpdate(g, new SparkCounts)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    of(group(e.properties)).jobs += 1
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    val g = group(e.properties)
    stageGroup(e.stageInfo.stageId) = g
    of(g).stages += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val c = of(stageGroup.getOrElse(e.stageId, ""))
    c.tasks += 1
    val m = e.taskMetrics
    if (m != null) {
      c.taskRunMs += m.executorRunTime
      c.gcMs += m.jvmGCTime
      c.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
    }
  }

  def countsOf(groups: Iterable[String]): SparkCounts = synchronized {
    val out = new SparkCounts
    groups.foreach(g => counts.get(g).foreach(out += _))
    out
  }
}

/** One timed call into the program. `parent` is the id of the enclosing
  * span, -1 at top level.
  */
final case class Span(id: Int, name: String, parent: Int, startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Times calls into the program. Every call is timed; with tracing on, each
  * also becomes a span that runs under its own Spark job group, so the
  * listener can attribute the Spark work it caused.
  *
  * Spans live in memory and are written out once, at the end of the run.
  */
final class Tracer(spark: SparkSession, val enabled: Boolean) {
  private val sc       = spark.sparkContext
  private val listener = new GroupListener
  private val done     = mutable.ArrayBuffer[Span]()
  private var stack    = List.empty[(Int, String)]
  private var nextId   = 0
  private var attached = false

  if (enabled) attach()

  def attach(): Unit = if (!attached) { sc.addSparkListener(listener); attached = true }
  def detach(): Unit = if (attached) { sc.removeSparkListener(listener); attached = false }

  private def group(id: Int, name: String): String = s"$name#$id"

  /** Run `body`, returning its result and wall time in seconds. */
  def timed[A](name: String)(body: => A): (A, Double) = {
    if (!enabled || !attached) {
      val t0 = System.nanoTime()
      val a  = body
      return (a, (System.nanoTime() - t0) / 1e9)
    }
    val id = nextId
    nextId += 1
    val parent = stack.headOption.map(_._1).getOrElse(-1)
    stack = (id, name) :: stack
    sc.setJobGroup(group(id, name), name)
    val t0 = System.nanoTime()
    try {
      val a  = body
      val t1 = System.nanoTime()
      done += Span(id, name, parent, t0, t1)
      (a, (t1 - t0) / 1e9)
    } finally {
      stack = stack.tail
      stack.headOption match {
        case Some((pid, pname)) => sc.setJobGroup(group(pid, pname), pname)
        case None               => sc.clearJobGroup()
      }
    }
  }

  def spans: Seq[Span] = done.toSeq

  /** Spark work of every span called `name` and of the spans below them.
    * The listener bus delivers events on its own thread, so this first
    * waits until the bus has handed every posted event to the listener.
    */
  def counts(name: String): SparkCounts = {
    BusAccess.waitUntilEmpty(sc)
    val roots = done.filter(_.name == name).map(_.id).toSet
    val ids   = mutable.Set[Int]() ++ roots
    // Children end (and are recorded) before their parents, so walk to a
    // fixed point instead of relying on order.
    var grew = true
    while (grew) {
      val add = done.filter(s => ids.contains(s.parent) && !ids.contains(s.id)).map(_.id)
      grew = add.nonEmpty
      ids ++= add
    }
    listener.countsOf(done.filter(s => ids.contains(s.id)).map(s => group(s.id, s.name)))
  }

  def seconds(name: String): Double = done.filter(_.name == name).map(_.seconds).sum

  /** Spans as JSON lines, times in ns relative to the first span. */
  def writeSpans(path: java.nio.file.Path): Unit = {
    val t0 = done.map(_.startNs).minOption.getOrElse(0L)
    val lines = done.sortBy(_.startNs).map { s =>
      Json.obj(Seq("id" -> s.id, "name" -> s.name, "parent" -> s.parent,
        "start_ns" -> (s.startNs - t0), "end_ns" -> (s.endNs - t0)))
    }
    java.nio.file.Files.createDirectories(path.getParent)
    java.nio.file.Files.write(path, (lines.mkString("\n") + "\n").getBytes("UTF-8"))
  }
}
