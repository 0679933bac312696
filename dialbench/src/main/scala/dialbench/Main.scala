package dialbench

import java.io.{File, PrintWriter}

import scala.collection.mutable
import scala.util.Try

import org.apache.spark.sql.SparkSession

/** The DIALITE benchmark: one workload per run, a closed loop of ops sent
  * back to back from this driver for `--seconds`, every op's output checked
  * outside its timing. With `--trace 0` it prints the end-to-end metrics,
  * with `--trace 1` the per-layer ones. The last stdout line is the JSON
  * result; `dialbench/run.py` builds the classpath and starts this.
  */
object Main {

  final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean,
                        workDir: File, spansOut: File, wrongExpected: Boolean,
                        sourceSha: String, gitSha: String)

  /** One timed op. Wall-clock `startMs`/`endMs` line up with task times. */
  final case class OpRow(id: String, traced: Boolean, seconds: Double, ok: Boolean,
                         tuples: Long, startMs: Long, endMs: Long, gcSeconds: Double)

  val LayerNames: Seq[String] = Seq("lake", "gen", "discovery.santos", "discovery.lsh",
    "core.align", "core.outer_union", "core.fd", "core.outer_join", "er", "analyze")

  /** After this long a run starts no more ops (but always times one), so
    * that it ends well within three minutes.
    */
  val HardStopSeconds = 120.0

  def parse(args: Array[String]): Opts = {
    val kv = args.sliding(2).collect { case Array(k, v) if k.startsWith("--") => k -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing $k"))
    Opts(need("--workload"), need("--seed").toLong, need("--seconds").toInt,
      need("--trace") == "1", new File(need("--work-dir")), new File(need("--spans-out")),
      args.contains("--wrong-expected"), kv.getOrElse("--source-sha", "unknown"),
      kv.getOrElse("--git-sha", "unknown"))
  }

  def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
    }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val runStart = System.nanoTime()
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    val spark = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("dialbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      // One shuffle partition per core: every input here is small.
      .config("spark.sql.shuffle.partitions", cores.toString)
      .config("spark.sql.warehouse.dir", new File(o.workDir, "warehouse").getPath)
      .getOrCreate()
    val sessionStart = secondsSince(runStart)
    Console.err.println(f"[$sessionStart%7.2f s] Spark session started")
    val sc = spark.sparkContext
    val listener = new LayerListener
    sc.addSparkListener(listener)
    val tracer = new Tracer(sc)
    val layers = new Layers(spark, tracer)
    val lakeDir = new File(o.workDir, "lakes")
    val workload: Workload = o.workload match {
      case "paper-demo" => new PaperDemo(layers, o.wrongExpected)
      case "tpch-reintegrate" => new TpchReintegrate(layers, o.seed, o.wrongExpected)
      case "lake-pipeline" => new LakePipeline(layers, o.seed, lakeDir, o.wrongExpected)
      case other => throw new IllegalArgumentException(s"unknown workload '$other'")
    }
    try new Runner(o, spark, tracer, listener, workload, runStart, sessionStart).run()
    finally {
      workload match { case lp: LakePipeline => lp.close(); case _ => }
      spark.stop()
    }
  }
}

final class Runner(o: Main.Opts, spark: SparkSession, tracer: Tracer, listener: LayerListener,
                   w: Workload, runStart: Long, sessionStart: Double) {
  import Main._

  private val sc = spark.sparkContext
  private val heap = new HeapWatch

  private def log(msg: String): Unit =
    Console.err.println(f"[${secondsSince(runStart)}%7.2f s] $msg")

  private def op(id: String, i: Int, traced: Boolean): OpRow = {
    val gc0 = heap.gcSeconds
    val ms0 = System.currentTimeMillis()
    val t0 = System.nanoTime()
    val followUp = Try(tracer.inOp(id, traced)(w.run(i)))
    val seconds = secondsSince(t0)
    val ms1 = System.currentTimeMillis()
    val gc = heap.gcSeconds - gc0
    val tuples = followUp.flatMap(f => Try(f()))
    tuples.failed.foreach(e => Console.err.println(s"op $id failed: $e"))
    OpRow(id, traced, seconds, tuples.isSuccess, tuples.getOrElse(0L), ms0, ms1, gc)
  }

  def run(): Unit = {
    val setupSeconds = (0 until w.setupPasses).map { j =>
      val t0 = System.nanoTime()
      val followUp = tracer.inOp(s"setup-$j", o.trace)(w.setup())
      val s = secondsSince(t0)
      followUp()
      s
    }
    log(s"set-up passes: ${setupSeconds.map(s => f"$s%.2f").mkString(" ")} s")
    val warmup = op("warmup", w.warmupOp, traced = false)
    log(f"warm-up op: ${warmup.seconds}%.2f s")

    // Whole cycles of op kinds. A traced run alternates untraced and traced
    // cycles that repeat the same ops, so both modes see the same inputs.
    val block = if (o.trace) 2 * w.cycle else w.cycle
    val rows = mutable.ArrayBuffer.empty[OpRow]
    heap.start()
    val loopStart = System.nanoTime()
    while (rows.isEmpty || (secondsSince(loopStart) < o.seconds || rows.size % block != 0) &&
           secondsSince(runStart) < HardStopSeconds) {
      val i = rows.size
      val input = if (o.trace) i / block * w.cycle + i % w.cycle else i
      rows += op(i.toString, input, traced = o.trace && (i / w.cycle) % 2 == 1)
    }
    val peakHeapMb = heap.stop()
    log(s"timed ops: ${rows.map(r => f"${r.seconds}%.2f").mkString(" ")} s")

    val (tables, tuples) = w.inputSize
    log("input size counted")
    val failed = rows.count(!_.ok)
    val selfTimesOk = tracer.selfSeconds.values.forall(_ >= -1e-9)
    val correct = failed == 0 && warmup.ok && selfTimesOk
    val metrics =
      if (o.trace) perLayer(rows.toSeq, setupSeconds, warmup.seconds, peakHeapMb, failed)
      else endToEnd(rows.toSeq, setupSeconds, failed)

    val stamp = Json.obj(
      "workload" -> o.workload, "seed" -> o.seed, "trace" -> o.trace,
      "run_seconds" -> o.seconds, "git_sha" -> o.gitSha, "source_sha1" -> o.sourceSha,
      "nproc" -> Runtime.getRuntime.availableProcessors, "spark_version" -> spark.version,
      "master" -> sc.master, "default_parallelism" -> sc.defaultParallelism,
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "driver_heap_mb" -> Runtime.getRuntime.maxMemory / (1 << 20),
      "ops" -> rows.size, "setup_passes" -> setupSeconds.size,
      "input_tables" -> tables, "input_tuples" -> tuples)
    println(s"stamp $stamp")
    println(f"${o.workload}: ${rows.size} ops ($failed failed) in " +
      f"${rows.map(_.seconds).sum}%.2f s, input $tables tables / $tuples tuples")
    for ((name, (v, unit)) <- metrics) println(f"  $name%-32s $v%14.6f $unit")
    if (!selfTimesOk) println("  span self times exceed their spans' durations")
    if (o.trace) writeSpans()
    println(Json.obj(
      "correct" -> correct, "attempted" -> rows.size, "failed" -> failed,
      "metrics" -> Json.obj(metrics.map { case (n, (v, u)) =>
        n -> Json.obj("value" -> v, "unit" -> u) }: _*)))
  }

  private def jobsPerOp(ids: Set[String]): Double =
    listener.jobs(sc).count { case (op, _) => ids(op) }.toDouble / math.max(1, ids.size)

  private def endToEnd(rows: Seq[OpRow], setupSeconds: Seq[Double],
                       failed: Int): Seq[(String, (Double, String))] = Seq(
    "setup_s" -> (median(setupSeconds), "s"),
    "op_p50_s" -> (median(rows.map(_.seconds)), "s"),
    "input_tuples_per_s" -> (rows.map(_.tuples).sum / rows.map(_.seconds).sum, "tuples/s"),
    "spark_jobs_per_op" -> (jobsPerOp(rows.map(_.id).toSet), "jobs/op"),
    "ok_frac" -> (1.0 - failed.toDouble / rows.size, "ratio"),
  )

  /** Layer metrics are means per traced op, except `lake.*` and
    * `discovery.*.index_s`, which come from the set-up passes `setup_s`
    * reports: the pass of median time, or the mean of the middle two.
    */
  private def perLayer(rows: Seq[OpRow], setupSeconds: Seq[Double], coldSeconds: Double,
                       peakHeapMb: Double, failed: Int): Seq[(String, (Double, String))] = {
    val traced = rows.filter(_.traced)
    val tracedIds = traced.map(_.id).toSet
    val byTime = setupSeconds.zipWithIndex.sortBy(_._1).map(_._2)
    val half = byTime.size / 2
    val middle = if (byTime.size % 2 == 1) Seq(byTime(half)) else Seq(byTime(half - 1), byTime(half))
    val setupIds = middle.map(j => s"setup-$j").toSet
    val jobs = listener.jobs(sc)
    val tasks = listener.tasks(sc)
    val self = tracer.selfSeconds
    def counter(ids: Set[String], name: String): Seq[Double] =
      tracer.counts.toSeq.collect { case ((op, n), v) if n == name && ids(op) => v }

    val layerMetrics = LayerNames.flatMap { layer =>
      val ids = if (layer == "lake") setupIds else tracedIds
      val n = math.max(1, ids.size).toDouble
      val spans = tracer.spans.filter(s => s.layer == layer && ids(s.op))
      val own = tasks.filter(c => c.layer == layer && ids(c.op))
      Seq(
        s"$layer.s" -> (spans.map(_.seconds).sum / n, "s"),
        s"$layer.self_s" -> (spans.map(s => self(s.id)).sum / n, "s"),
        s"$layer.jobs" -> (jobs.count { case (op, l) => l == layer && ids(op) } / n, "jobs"),
        s"$layer.task_s" -> (own.map(_.runMs).sum / 1e3 / n, "s"),
        s"$layer.shuffle_mb" -> (own.map(_.shuffleBytes).sum / 1e6 / n, "MB"),
        s"$layer.rows_in" -> (counter(ids, s"$layer.rows_in").sum / n, "rows"),
        s"$layer.rows_out" -> (counter(ids, s"$layer.rows_out").sum / n, "rows"),
      )
    }
    val nT = math.max(1, traced.size).toDouble
    def discovery(d: String) = Seq(
      s"$d.index_s" -> (tracer.spans.filter(s => s.layer == d && setupIds(s.op))
        .map(_.seconds).sum / setupIds.size, "s"),
      s"$d.precision" -> {
        val hits = counter(tracedIds, s"$d.hits").sum
        (if (hits == 0) 0.0 else counter(tracedIds, s"$d.relevant").sum / hits, "ratio")
      })
    // Op wall time during which none of the op's tasks ran.
    val driverSeconds = traced.map { r =>
      val spans = tasks.filter(_.op == r.id)
        .map(c => (math.max(c.launchMs, r.startMs), math.min(c.finishMs, r.endMs)))
        .filter { case (a, b) => b > a }.sortBy(_._1)
      var (covered, reach) = (0L, r.startMs)
      for ((a, b) <- spans if b > reach) { covered += b - math.max(a, reach); reach = b }
      (r.endMs - r.startMs - covered) / 1e3
    }
    val untraced = rows.filterNot(_.traced)
    layerMetrics ++ discovery("discovery.santos") ++ discovery("discovery.lsh") ++ Seq(
      "core.align.columns" -> (counter(tracedIds, "core.align.columns").sum / nT, "columns"),
      "core.align.iids" -> (counter(tracedIds, "core.align.iids").sum / nT, "iids"),
      "core.fd.shuffle_records" -> (tasks.filter(c => c.layer == "core.fd" && tracedIds(c.op))
        .map(_.shuffleRecords).sum / nT, "records"),
      "er.max_block" -> (counter(tracedIds, "er.max_block").maxOption.getOrElse(0.0), "rows"),
      "spark.driver_s" -> (driverSeconds.sum / nT, "s"),
      "spark.session_start_s" -> (sessionStart, "s"),
      "jvm.gc_s" -> (traced.map(_.gcSeconds).sum / nT, "s"),
      "peak_heap_mb" -> (peakHeapMb, "MB"),
      "op_cold_s" -> (coldSeconds, "s"),
      "trace.overhead_s" -> (median(traced.map(_.seconds)) - median(untraced.map(_.seconds)), "s"),
      "fail_frac" -> (failed.toDouble / rows.size, "ratio"),
    )
  }

  /** Spans are kept in memory during the run and written here at its end. */
  private def writeSpans(): Unit = {
    o.spansOut.getParentFile.mkdirs()
    val out = new PrintWriter(o.spansOut, "UTF-8")
    try tracer.spans.sortBy(_.id).foreach { s =>
      out.println(Json.obj("id" -> s.id, "parent" -> s.parent, "layer" -> s.layer,
        "op" -> s.op, "start_ns" -> s.start, "end_ns" -> s.end))
    } finally out.close()
    println(s"spans: ${tracer.spans.size} written to ${o.spansOut.getPath}")
  }
}

/** Minimal JSON rendering for the result line, the stamp and the spans. */
object Json {
  final case class Obj(fields: Seq[(String, Any)]) {
    override def toString: String =
      fields.map { case (k, v) => s"${str(k)}: ${value(v)}" }.mkString("{", ", ", "}")
  }

  def obj(fields: (String, Any)*): Obj = Obj(fields)

  private def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  private def value(v: Any): String = v match {
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case b: Boolean => b.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case o: Obj => o.toString
    case s => str(s.toString)
  }
}
