package atrbench

import com.sun.management.GarbageCollectionNotificationInfo
import java.lang.management.{ManagementFactory, MemoryType}
import javax.management.{Notification, NotificationEmitter}
import javax.management.openmbean.CompositeData
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}
import org.apache.spark.sql.SparkSession
import repro.graph.{CompactGraph, GraphGen}
import repro.truss.LocalTruss
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Runs one workload and prints its metrics; the last stdout line is the
  * JSON result `{"correct", "attempted", "failed", "metrics"}`.
  *
  * {{{
  * Main --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
  *      --out <dir> --commit <id>
  * }}}
  *
  * `--trace 0` reports the end-to-end metrics of untraced calls of the
  * workload's entry point, repeated for `--seconds`. `--trace 1` alternates
  * untraced calls and traced replays on the first graph (see [[traced]])
  * and reports per-layer metrics.
  */
object Main {

  final case class Opts(workload: Workloads.Workload, seed: Option[Long], seconds: Int,
                        trace: Boolean, out: Path, commit: String)

  def parse(args: Array[String]): Either[String, Opts] = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val unknown = kv.keySet -- Set("workload", "seed", "seconds", "trace", "out", "commit")
    def num[T](k: String, f: String => T): Either[String, Option[T]] =
      kv.get(k) match {
        case None => Right(None)
        case Some(v) => try Right(Some(f(v))) catch { case _: NumberFormatException => Left(s"--$k: not a number: $v") }
      }
    for {
      _ <- Either.cond(args.length % 2 == 0 && unknown.isEmpty, (), s"bad arguments: ${args.mkString(" ")}")
      name <- kv.get("workload").toRight(s"--workload is required (${Workloads.all.map(_.name).mkString(", ")})")
      w <- Workloads.byName(name).toRight(s"unknown workload $name")
      seed <- num("seed", _.toLong)
      seconds <- num("seconds", _.toInt)
      trace <- num("trace", _.toInt)
      _ <- Either.cond(seconds.forall(_ > 0) && trace.forall(t => t == 0 || t == 1), (), "bad --seconds or --trace")
      out <- kv.get("out").toRight("--out is required")
      commit <- kv.get("commit").toRight("--commit is required")
    } yield Opts(w, seed, seconds.getOrElse(5), trace.contains(1), Paths.get(out), commit)
  }

  /** Set-ups per run; setup_s is their median. */
  val SetupRuns = 5

  final case class Setup(graphs: Seq[CompactGraph], genMs: Double, buildMs: Double, totalS: Double)

  /** Graph generation and CSR build of every graph of the run, and a warm-up
    * call of the entry point with a small budget on the first, which
    * compiles the hot paths and starts Spark's executors before timing.
    */
  def setup(spark: SparkSession, w: Workloads.Workload, cfgs: Seq[GraphGen.Config]): Setup = {
    val t0 = System.nanoTime()
    val edges = cfgs.map(GraphGen.edges)
    val t1 = System.nanoTime()
    val graphs = edges.map(CompactGraph.fromEdges)
    val t2 = System.nanoTime()
    Workloads.call(spark, w, graphs.head, b = if (w.greedy) 2 else w.b,
                   trials = spark.sparkContext.defaultParallelism)
    val t3 = System.nanoTime()
    Setup(graphs, (t1 - t0) / 1e6, (t2 - t1) / 1e6, (t3 - t0) / 1e9)
  }

  /** Peak live heap: the most heap in use right after any collection
    * between [[reset]] and [[peakMb]], which ends with a full collection, from
    * the JVM's GC notifications. Heap in use before a collection mostly
    * measures how long the collector waited; after one it measures what the
    * call keeps resident.
    */
  object Heap {
    private val heapPools =
      ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP).map(_.getName).toSet
    private val peak = new java.util.concurrent.atomic.AtomicLong(0L)
    private def usedAfter(n: Notification): Long = {
      val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
      info.getGcInfo.getMemoryUsageAfterGc.asScala.collect {
        case (pool, u) if heapPools(pool) => u.getUsed
      }.sum
    }
    ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
      _.asInstanceOf[NotificationEmitter].addNotificationListener(
        (n: Notification, _: AnyRef) =>
          if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION)
            peak.accumulateAndGet(usedAfter(n), math.max),
        null, null)
    }
    def reset(): Unit = { System.gc(); Thread.sleep(50); peak.set(0L) }
    def peakMb: Double = { System.gc(); Thread.sleep(50); peak.get / 1048576.0 }
  }

  /** One untraced call: its wall time, peak live heap, output. */
  final case class Call(selectS: Double, heapMb: Double, out: Workloads.Output)

  /** Untraced calls of the entry point, cycling over the graphs and checked
    * against each graph's reference, until `seconds` have passed and every
    * graph has had a call.
    */
  def timedCalls(spark: SparkSession, w: Workloads.Workload, graphs: Seq[CompactGraph],
                 refs: Seq[Workloads.Reference], seconds: Int, tally: Tally): Seq[Call] = {
    val calls = mutable.ArrayBuffer.empty[Call]
    val start = System.nanoTime()
    while (tally.attempted < graphs.length || System.nanoTime() - start < seconds * 1e9) {
      val i = tally.attempted % graphs.length
      timedCall(spark, w, graphs(i), refs(i), tally).foreach(calls += _)
    }
    calls.toSeq
  }

  /** One untraced call on `g`, checked against its reference. */
  def timedCall(spark: SparkSession, w: Workloads.Workload, g: CompactGraph,
                ref: Workloads.Reference, tally: Tally): Option[Call] = {
    Heap.reset()
    val t0 = System.nanoTime()
    val out = tally.attempt(Workloads.call(spark, w, g, w.b, w.trials))(Workloads.check(ref, _))
    val t1 = System.nanoTime()
    out.map(o => Call((t1 - t0) / 1e9, Heap.peakMb, o))
  }

  /** Largest share of the untraced `select_s` by which the layer self times
    * of a greedy replay may miss it.
    */
  val CompletenessTolerance = 0.10

  /** None when the layer self times of a greedy replay, `attributedMs`, are
    * within [[CompletenessTolerance]] of the untraced wall time `untracedS`.
    */
  def completeness(attributedMs: Double, untracedS: Double): Option[String] = {
    val off = (untracedS - attributedMs / 1000) / untracedS
    if (untracedS.isNaN) Some("completeness: no untraced call to compare the replay with")
    else if (math.abs(off) <= CompletenessTolerance) None
    else Some(f"completeness: layer self times ${attributedMs / 1000}%.3f s miss untraced select_s " +
              f"$untracedS%.3f s by ${off * 100}%.1f%% (tolerance ${CompletenessTolerance * 100}%.0f%%)")
  }

  /** None when the replay reproduced the library call exactly. */
  def fidelity(lib: Workloads.Output, replay: Workloads.Output): Option[String] = (lib, replay) match {
    case (Workloads.GreedyOut(a), Workloads.GreedyOut(r)) =>
      def counts(x: repro.core.Greedy.Result) = x.rounds.map(s => (s.anchor, s.evaluated, s.reusedFully))
      if (a.anchors != r.anchors) Some(s"replay anchors ${r.anchors.mkString(",")} != library ${a.anchors.mkString(",")}")
      else if (counts(a) != counts(r)) Some(s"replay (anchor, evaluated, reused) ${counts(r)} != library ${counts(a)}")
      else if (a.gain != r.gain) Some(s"replay TG ${r.gain} != library ${a.gain}")
      else None
    case (Workloads.RstOut(a, b, c, _), Workloads.RstOut(x, y, z, _)) =>
      if ((a, b, c) != ((x, y, z))) Some(s"replay Rand/Sup/Tur ($x,$y,$z) != library ($a,$b,$c)") else None
    case _ => Some("replay output kind differs from the library's")
  }

  def replay(spark: SparkSession, w: Workloads.Workload, g: CompactGraph, tr: Tracer): Workloads.Output =
    w.entry match {
      case Workloads.Gas      => Workloads.GreedyOut(Replay.gas(spark, g, w.b, tr))
      case Workloads.BasePlus => Workloads.GreedyOut(Replay.basePlus(spark, g, w.b, tr))
      case Workloads.Rst =>
        val (r, s, t) = Replay.baselines(spark, g, w.b, w.trials, tr)
        Workloads.RstOut(r, s, t, Nil)
    }

  /** Traced replays per traced run, at least. */
  val MinReplays = 2

  /** The traced run on graph `g`: untraced calls and traced replays
    * alternate, starting and ending with a call, until `seconds` have passed
    * and [[MinReplays]] replays have run. Each replay must reproduce the
    * output of the call before it (the fidelity gate, counted like a call
    * check). On a greedy workload the median of the replays' summed layer
    * self times must be within [[CompletenessTolerance]] of the median call,
    * which runs as warm as the replays and, bracketing them, under the same
    * machine load; a miss is returned as the completeness gate's message.
    * Per-layer metrics come from the first replay.
    */
  def traced(spark: SparkSession, w: Workloads.Workload, g: CompactGraph, ref: Workloads.Reference,
             seconds: Int, tally: Tally, out: Path, traceId: String, genMs: Double,
             buildMs: Double): (Seq[(String, Double, String)], Option[String]) = {
    val calls = mutable.ArrayBuffer.empty[Call]
    val replays = mutable.ArrayBuffer.empty[(Tracer, Double)] // and each one's wall time in s
    def call(): Unit = timedCall(spark, w, g, ref, tally).foreach(calls += _)
    call()
    val start = System.nanoTime()
    var n = 0
    while (n < MinReplays || System.nanoTime() - start < seconds * 1e9) {
      n += 1
      val tr = new Tracer(s"$traceId-replay$n")
      val lib = calls.lastOption.map(_.out)
      tally.attempt {
        val t0 = System.nanoTime()
        val o = replay(spark, w, g, tr)
        replays += ((tr, (System.nanoTime() - t0) / 1e9))
        o
      }(o => lib.map(fidelity(_, o)).getOrElse(Some("no library output to compare the replay with")))
      call()
    }
    replays.foreach { case (tr, _) => tr.write(out.resolve(s"trace-${tr.traceId}.jsonl")) }
    if (replays.isEmpty || calls.isEmpty) return (Nil, Some("no replay or untraced call completed"))

    val untraced = Stats.median(calls.map(_.selectS))
    val attributed = Stats.median(replays.map { case (tr, _) => Layers.selfMs(tr).values.sum })
    val (tr, replayS) = replays.head
    val self = Layers.selfMs(tr)
    val measuring = tr.named("replay.measure").map(_.ms).sum
    println(s"untraced calls: ${calls.map(c => f"${c.selectS}%.3f").mkString(" ")} s; replays: " +
            replays.map { case (t, s) => f"$s%.3f s (layer self times ${Layers.selfMs(t).values.sum / 1000}%.3f s)" }
              .mkString(", "))
    println("first replay, layer self ms: " + Layers.names.map(l => f"$l=${self(l)}%.1f").mkString(" ") +
            f"; outside any layer span ${Layers.unspannedMs(tr)}%.1f ms")
    println(f"median layer self times ${attributed / 1000}%.3f s, median untraced select_s $untraced%.3f s, " +
            f"unattributed ${untraced - attributed / 1000}%.3f s")
    val gate = if (w.greedy) completeness(attributed, untraced) else None
    if (w.greedy)
      println(s"completeness ${if (gate.isEmpty) "PASS" else "FAIL"} " +
              s"(layer self times within ${(CompletenessTolerance * 100).round}% of untraced select_s; gated)")
    println(f"tracing overhead: first replay $replayS%.3f s (${measuring / 1000}%.3f s of it measuring calls) " +
            f"vs median untraced $untraced%.3f s")
    def ratio(a: Double, b: Double) = if (b == 0) 0.0 else a / b
    (Layers.metrics(tr, g.m, genMs, buildMs) ++ Seq(
      ("trace.select_s", replayS, "s"),
      ("trace.overhead_frac", ratio(replayS - untraced, untraced), "ratio"),
      ("trace.unattributed_frac", ratio(untraced * 1000 - attributed, untraced * 1000), "ratio"),
    ), gate)
  }

  def json(v: Double): String = if (v.isNaN || v.isInfinite) "null" else v.toString

  def main(args: Array[String]): Unit = {
    val opts = parse(args) match {
      case Right(o) => o
      case Left(err) => System.err.println(s"atrbench: $err"); sys.exit(2)
    }
    val nproc = Runtime.getRuntime.availableProcessors()
    Files.createDirectories(opts.out)
    val spark = SparkSession.builder
      .master(s"local[$nproc]")
      .appName("atrbench")
      .config("spark.ui.enabled", false)
      .config("spark.ui.showConsoleProgress", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", opts.out.resolve("spark-local").toAbsolutePath.toString)
      .config("spark.sql.shuffle.partitions", nproc)
      .getOrCreate()
    try run(spark, opts, nproc)
    finally spark.stop()
  }

  def run(spark: SparkSession, opts: Opts, nproc: Int): Unit = {
    val w = opts.workload
    val preset = GraphGen.preset(w.preset)
    val seed = opts.seed.getOrElse(preset.seed)
    val cfgs = w.graphSeeds(seed).map(s => preset.copy(seed = s))
    val setups = (1 to SetupRuns).map(_ => setup(spark, w, cfgs))
    val graphs = setups.last.graphs
    println("set-ups: " + setups.map(x => f"${x.totalS}%.3f s (gen ${x.genMs}%.1f ms, build ${x.buildMs}%.1f ms)")
      .mkString(", "))
    val sc = spark.sparkContext
    def list(xs: Seq[Any]) = xs.mkString("[", ",", "]")
    val record = Seq(
      "workload" -> w.name, "seed" -> seed, "graph_seeds" -> list(cfgs.map(_.seed)), "preset" -> w.preset,
      "m" -> list(graphs.map(_.m)), "kmax" -> list(graphs.map(LocalTruss.decompose(_).kMax)),
      "b" -> w.b, "trials" -> w.trials, "trace" -> (if (opts.trace) 1 else 0),
      "seconds" -> opts.seconds, "nproc" -> nproc, "spark_master" -> sc.master,
      "default_parallelism" -> sc.defaultParallelism,
      "driver_heap_mb" -> Runtime.getRuntime.maxMemory / 1048576,
      "jvm" -> System.getProperty("java.version"), "spark" -> spark.version, "commit" -> opts.commit)
    val recordJson = record.map {
      case (k, v: String) if !v.startsWith("[") => s""""$k":"$v""""
      case (k, v)                                => s""""$k":$v"""
    }.mkString("{", ",", "}")
    println(s"record $recordJson")

    // a traced run calls and replays the first graph only
    val called = if (opts.trace) graphs.take(1) else graphs
    val tally = new Tally
    val refStart = System.nanoTime()
    val refs = try Some(called.map(Workloads.reference(spark, w, _))) catch {
      case e: Exception => System.err.println(s"atrbench: reference failed: $e"); None
    }
    println(f"reference computed in ${(System.nanoTime() - refStart) / 1e9}%.1f s (untimed); " +
            s"JVM uptime ${ManagementFactory.getRuntimeMXBean.getUptime} ms")

    val (metrics, gate) = refs match {
      case None => (Nil, None)
      case Some(rs) if opts.trace =>
        traced(spark, w, graphs.head, rs.head, opts.seconds, tally, opts.out, s"${w.name}-seed$seed",
               Stats.median(setups.map(_.genMs)), Stats.median(setups.map(_.buildMs)))
      case Some(rs) =>
        val calls = timedCalls(spark, w, called, rs, opts.seconds, tally)
        val selectS = calls.map(_.selectS)
        val steps = calls.flatMap(c => Workloads.stepMillis(c.out))
        println(s"calls ${selectS.length}, steps ${steps.length}; select_s per call: " +
                selectS.map(v => f"$v%.3f").mkString(" "))
        // A run yields 20-80 greedy rounds, too few for a steady p90 (it
        // would rest on 2-8 samples), so p90 is printed but not bounded.
        if (steps.nonEmpty)
          println(s"round_ms.p90 = ${Stats.percentile(steps, 90)} ms (${steps.length} samples; not bounded)")
        def med(xs: Seq[Double]) = if (xs.isEmpty) Double.NaN else Stats.median(xs)
        (Seq(
          ("setup_s", Stats.median(setups.map(_.totalS)), "s"),
          ("select_s", med(selectS), "s"),
          ("round_ms.p50", med(steps), "ms"),
          ("heap_peak_mb", med(calls.map(_.heapMb)), "MB"),
        ), None)
    }

    (tally.messages ++ gate).foreach(m => println(s"FAILED: $m"))
    println(s"failed_frac = ${tally.failedFrac} (${tally.failed} of ${tally.attempted} calls)")
    metrics.foreach { case (n, v, u) => println(s"metric $n = ${json(v)} $u") }
    val correct = refs.isDefined && tally.failed == 0 && gate.isEmpty && metrics.nonEmpty &&
                  metrics.forall(!_._2.isNaN)
    val body = metrics.map { case (n, v, u) => s""""$n": {"value": ${json(v)}, "unit": "$u"}""" }
    val result = s"""{"correct": $correct, "attempted": ${math.max(1, tally.attempted)}, """ +
                 s""""failed": ${if (refs.isEmpty) math.max(1, tally.failed) else tally.failed}, """ +
                 s""""metrics": {${body.mkString(", ")}}}"""
    Files.write(opts.out.resolve(s"result-${w.name}-seed$seed-trace${if (opts.trace) 1 else 0}.json"),
                (s"""{"record": $recordJson, "result": $result}""" + "\n").getBytes(StandardCharsets.UTF_8))
    println(s"JVM uptime ${ManagementFactory.getRuntimeMXBean.getUptime} ms")
    println(result)
  }
}
