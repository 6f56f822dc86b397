package atrbench

import scala.collection.mutable

/** Per-layer metrics of one traced replay, and the attribution of its wall
  * time to layers.
  */
object Layers {

  /** Layers in attribution order; a span's layer is its name's prefix. */
  val names: Seq[String] = Seq("greedy", "baselines", "sweep", "followers", "reuse", "tree", "truss")

  private val taskSpans = Set("followers.task", "truss.task")

  /** Spans that only group other spans: a whole replayed call, one greedy
    * round, the baseline triple. Their self time is replay code outside any
    * layer's span, and is left unattributed.
    */
  val frames: Set[String] = Set("greedy.select", "greedy.round", "baselines.call")

  /** Self time in ms of every span that counts, by span: its duration minus
    * its children's. Spark task spans and `measure` spans are left out.
    */
  private def spanSelfMs(tr: Tracer): Seq[(Span, Double)] = {
    val spans = tr.all.filterNot(s => taskSpans(s.name))
    val childMs = spans.groupBy(_.parent).map { case (p, cs) => p -> cs.map(_.ms).sum }
    spans.filterNot(_.measure).map(s => s -> (s.ms - childMs.getOrElse(s.id, 0.0)))
  }

  /** Replay time in ms outside every layer span: the self time of [[frames]]. */
  def unspannedMs(tr: Tracer): Double = spanSelfMs(tr).collect { case (s, ms) if frames(s.name) => ms }.sum

  /** Self time in ms per layer; a span's layer is its name's prefix. A
    * Spark job's critical path (its longest task's kernel time) goes to the
    * kernel's layer and the rest of the job to `sweep`. The decomposition
    * and tree steps inside `FollowerReuse` calls, timed after the call, move
    * from `reuse` to `truss` and `tree`. The sum is the replay's wall time
    * less the `measure` calls and less [[unspannedMs]].
    */
  def selfMs(tr: Tracer): Map[String, Double] = {
    val acc = mutable.LinkedHashMap(names.map(_ -> 0.0): _*)
    def add(layer: String, ms: Double): Unit = acc(layer) = acc(layer) + ms
    spanSelfMs(tr).foreach { case (s, ms) => if (!frames(s.name)) add(s.name.takeWhile(_ != '.'), ms) }
    val followersCrit = tr.counter("followers.task.critical_ns") / 1e6
    val trussCrit = tr.counter("truss.task.critical_ns") / 1e6
    add("sweep", -(followersCrit + trussCrit))
    add("followers", followersCrit)
    add("truss", trussCrit)
    val inReuseTruss = tr.totalMs("truss.decompose", "initial") + tr.totalMs("truss.decompose", "refresh")
    val inReuseTree = tr.totalMs("tree.build") + tr.totalMs("tree.rebuild")
    add("reuse", -(inReuseTruss + inReuseTree))
    add("truss", inReuseTruss)
    add("tree", inReuseTree)
    acc.toMap
  }

  /** Every anchored decomposition's ms: spans and in-task trials. */
  def decomposeMs(tr: Tracer): Array[Double] =
    tr.named("truss.decompose").map(_.ms).toArray ++ tr.samplesOf("truss.task_decompose_ms")

  /** The per-layer metrics of one replay as (name, value, unit). Layers a
    * workload never calls report 0.
    */
  def metrics(tr: Tracer, m: Int, genMs: Double, buildMs: Double): Seq[(String, Double, String)] = {
    def p50(xs: Array[Double]): Double = if (xs.isEmpty) 0.0 else Stats.median(xs)
    def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b
    val dec = decomposeMs(tr)
    val self = selfMs(tr)
    val rebuilds = tr.counter("tree.rebuilds")
    val refreshMs = tr.totalMs("reuse.refresh")
    val jobMs = tr.totalMs("sweep.job")
    val critMs = (tr.counter("followers.task.critical_ns") + tr.counter("truss.task.critical_ns")) / 1e6
    Seq(
      ("graph.gen_ms", genMs, "ms"),
      ("graph.build_ms", buildMs, "ms"),
      ("truss.decompose_ms", p50(dec), "ms"),
      ("truss.decompose_calls", dec.length.toDouble, "count"),
      ("truss.decompose_total_ms", dec.sum, "ms"),
      ("tree.build_ms", tr.totalMs("tree.build"), "ms"),
      ("tree.rebuild_total_ms", tr.totalMs("tree.rebuild"), "ms"),
      ("tree.rebuild_edges", tr.counter("tree.rebuild_edges"), "count"),
      ("tree.rebuild_frac", ratio(tr.counter("tree.rebuild_edges"), m * rebuilds), "ratio"),
      ("reuse.initial_ms", tr.totalMs("reuse.initial"), "ms"),
      ("reuse.refresh_total_ms", refreshMs, "ms"),
      ("reuse.refresh_self_ms",
        refreshMs - tr.totalMs("truss.decompose", "refresh") - tr.totalMs("tree.rebuild"), "ms"),
      ("reuse.stale_nodes", tr.counter("reuse.stale_nodes"), "count"),
      ("reuse.invalidated_edges", tr.counter("reuse.invalidated_edges"), "count"),
      ("greedy.evaluated", tr.counter("greedy.evaluated"), "count"),
      ("greedy.reused_fully", tr.counter("greedy.reused_fully"), "count"),
      ("greedy.reuse_frac", ratio(tr.counter("greedy.reused_fully"), tr.counter("greedy.candidates")), "ratio"),
      ("greedy.cache_ms", tr.totalMs("greedy.cache"), "ms"),
      ("greedy.final_gain_ms", tr.totalMs("greedy.final_gain"), "ms"),
      ("followers.find_calls", tr.counter("followers.find_calls"), "count"),
      ("followers.kernel_cpu_ms", tr.counter("followers.task.kernel_ns") / 1e6, "ms"),
      ("followers.find_us.p50", p50(tr.samplesOf("followers.find_us")), "us"),
      ("followers.route_size_sum", tr.counter("followers.route_size_sum"), "count"),
      ("sweep.jobs", tr.named("sweep.job").size.toDouble, "count"),
      ("sweep.job_total_ms", jobMs, "ms"),
      ("sweep.overhead_ms", jobMs - critMs, "ms"),
      ("sweep.tasks", tr.counter("sweep.tasks"), "count"),
      ("sweep.broadcast_bytes_computed", tr.counter("sweep.broadcast_bytes"), "B"),
    ) ++ names.map(l => (s"$l.self_ms", self(l), "ms"))
  }
}
