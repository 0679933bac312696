package dialbench

import java.lang.management.{ManagementFactory, MemoryType}
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.DataFrame

import repro.core.{Alignment, SchemaMatcher}
import repro.discovery.{Discoverer, ScoredTable}

/** One call into a layer. `start`/`end` are `System.nanoTime` readings;
  * `parent` is the enclosing span's id, -1 for an op's root span.
  */
final case class Span(id: Int, parent: Int, layer: String, op: String,
                      start: Long, end: Long) {
  def seconds: Double = (end - start) / 1e9
}

/** Spans around the benchmark's calls into each layer, kept in memory.
  *
  * Every op, traced or not, tags the Spark jobs it starts with its op id
  * (a SparkContext local property); a traced op also tags them with the
  * innermost open layer, so `LayerListener` can charge each job, task and
  * shuffle byte to the layer that started it.
  */
final class Tracer(sc: SparkContext) {
  val spans = mutable.ArrayBuffer.empty[Span]
  /** (op id, counter name) -> value, e.g. rows in and out of a layer. */
  val counts = mutable.Map.empty[(String, String), Double].withDefaultValue(0.0)

  private var open: List[Int] = Nil
  private var nextId = 0
  private var op = ""
  private var traced = false
  private var inside = false

  /** True while a traced op runs. */
  def enabled: Boolean = traced && inside

  /** Runs `body` as op `opId`; with `trace` its layer calls record spans. */
  def inOp[A](opId: String, trace: Boolean)(body: => A): A = {
    sc.setLocalProperty(Tracer.OpKey, opId)
    op = opId
    traced = trace
    inside = true
    try span("op")(body)
    finally {
      inside = false
      sc.setLocalProperty(Tracer.OpKey, null)
    }
  }

  def span[A](layer: String)(body: => A): A =
    if (!enabled) body
    else {
      val outer = sc.getLocalProperty(Tracer.LayerKey)
      val id = nextId
      nextId += 1
      val parent = open.headOption.getOrElse(-1)
      open = id :: open
      sc.setLocalProperty(Tracer.LayerKey, layer)
      val t0 = System.nanoTime()
      try body
      finally {
        spans += Span(id, parent, layer, op, t0, System.nanoTime())
        open = open.tail
        sc.setLocalProperty(Tracer.LayerKey, outer)
      }
    }

  /** Adds to a counter of the current or, after it ended, the last op; a
    * no-op unless that op is traced. Row counts are taken after an op ends,
    * so that counting stays out of its timing and its tags.
    */
  def count(name: String, v: => Double): Unit = if (traced) counts((op, name)) += v

  /** Keeps the largest value seen for a counter, like `count`. */
  def countMax(name: String, v: => Double): Unit =
    if (traced) counts((op, name)) = math.max(counts((op, name)), v)

  /** Adds the rows a layer took in and gave out. */
  def rows(layer: String, in: => Long, out: => Long): Unit = {
    count(layer + ".rows_in", in.toDouble)
    count(layer + ".rows_out", out.toDouble)
  }

  /** Self time of every span: its duration minus its children's. */
  def selfSeconds: Map[Int, Double] = {
    val childTime = spans.groupMapReduce(_.parent)(_.seconds)(_ + _)
    spans.map(s => s.id -> (s.seconds - childTime.getOrElse(s.id, 0.0))).toMap
  }
}

object Tracer {
  val OpKey = "dialbench.op"
  val LayerKey = "dialbench.layer"
}

/** What one finished task cost, charged to the op and layer of its job. */
final case class TaskCost(op: String, layer: String, launchMs: Long, finishMs: Long,
                          runMs: Long, shuffleBytes: Long, shuffleRecords: Long)

/** Counts jobs and task costs per (op, layer) from the tags `Tracer` sets. */
final class LayerListener extends SparkListener {
  private val stageTag = mutable.Map.empty[Int, (String, String)]
  private val jobTags = mutable.ArrayBuffer.empty[(String, String)]
  private val taskCosts = mutable.ArrayBuffer.empty[TaskCost]

  private def tag(props: java.util.Properties, key: String): String =
    Option(props).flatMap(p => Option(p.getProperty(key))).getOrElse("")

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val t = (tag(e.properties, Tracer.OpKey), tag(e.properties, Tracer.LayerKey))
    jobTags += t
    e.stageInfos.foreach(s => stageTag(s.stageId) = t)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val (op, layer) = stageTag.getOrElse(e.stageId, ("", ""))
    val m = Option(e.taskMetrics)
    taskCosts += TaskCost(op, layer, e.taskInfo.launchTime, e.taskInfo.finishTime,
      m.map(_.executorRunTime).getOrElse(0L),
      m.map(_.shuffleWriteMetrics.bytesWritten).getOrElse(0L),
      m.map(_.shuffleWriteMetrics.recordsWritten).getOrElse(0L))
  }

  /** (op, layer) of every job started so far, after draining the bus. */
  def jobs(sc: SparkContext): Seq[(String, String)] = {
    org.apache.spark.ListenerBusDrain(sc)
    synchronized(jobTags.toVector)
  }

  def tasks(sc: SparkContext): Seq[TaskCost] = {
    org.apache.spark.ListenerBusDrain(sc)
    synchronized(taskCosts.toVector)
  }
}

/** Peak heap use and GC time while it is on. The peak is the largest heap
  * occupancy seen right before a collection or at `stop`.
  */
final class HeapWatch {
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == MemoryType.HEAP).map(_.getName).toSet
  @volatile private var on = false
  @volatile private var peak = 0L

  private def record(bytes: Long): Unit = synchronized { peak = math.max(peak, bytes) }
  private def used: Long = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed

  private val onGc = new NotificationListener {
    override def handleNotification(n: Notification, handback: AnyRef): Unit =
      if (on && n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
        record(info.getGcInfo.getMemoryUsageBeforeGc.asScala.collect {
          case (pool, u) if heapPools(pool) => u.getUsed
        }.sum)
      }
  }
  ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
    case e: NotificationEmitter => e.addNotificationListener(onGc, null, null)
    case _ =>
  }

  def start(): Unit = { peak = used; on = true }

  /** Peak heap in MB since `start`. */
  def stop(): Double = { record(used); on = false; peak / 1e6 }

  def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum / 1e3
}

/** The schema matcher, with each call a `core.align` span. */
final class TracedMatcher(inner: SchemaMatcher, t: Tracer) extends SchemaMatcher {
  override def align(tables: Seq[(String, DataFrame)]): Alignment = t.span("core.align") {
    val a = inner.align(tables)
    t.count("core.align.columns",
      tables.map(_._2.columns.count(c => !SchemaMatcher.isTid(c))).sum.toDouble)
    t.count("core.align.iids", a.numIids.toDouble)
    a
  }
}

/** A discoverer whose calls are spans of `layer`; keeps the last hit list. */
final class TracedDiscoverer(val layer: String, inner: Discoverer, t: Tracer)
    extends Discoverer {
  @volatile var lastHits: Seq[ScoredTable] = Nil
  override def name: String = inner.name
  override def discover(query: DataFrame, queryColumn: Option[String],
                        k: Int): Seq[ScoredTable] = {
    lastHits = t.span(layer)(inner.discover(query, queryColumn, k))
    lastHits
  }
}
