package atrbench

import org.apache.spark.TaskContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.util.CollectionAccumulator
import org.apache.spark.sql.SparkSession
import repro.core.{FollowerFinder, FollowerReuse, Greedy, TrussTree}
import repro.graph.CompactGraph
import repro.truss.LocalTruss
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.Random

/** The traced replay: re-executes each workload's loop from the layers'
  * public functions (`LocalTruss`, `TrussTree`, `FollowerReuse`,
  * `FollowerFinder`) in the same order and with the same Spark sweep
  * pattern as `Greedy` and `Baselines`, and records a span around every
  * call. Its results must equal the library's (the fidelity gate), or its
  * per-layer numbers describe another program.
  *
  * Steps the library performs inside one public call (the decomposition and
  * tree rebuild inside `FollowerReuse.refresh`, the decomposition and tree
  * build inside `initial`) are timed by calling them again with the same
  * inputs once the replayed call has returned, in spans marked `measure`;
  * those calls are left out of the wall-time attribution, do not slow the
  * replayed loop, and are checked to give what the library computed.
  */
object Replay {

  // ------------------------------------------------------------- GAS

  def gas(spark: SparkSession, g: CompactGraph, b: Int, tr: Tracer): Greedy.Result = {
    // what the measuring calls after the replayed call are checked against
    var initial, last: FollowerReuse.RoundState = null
    val result = tr.span("greedy.select") {
      import spark.implicits._
      val sc = spark.sparkContext
      val gB = tr.span("sweep.broadcast") { sc.broadcast(g) }
      tr.count("sweep.broadcast_bytes", graphBytes(g))
      val anchors = new Array[Boolean](g.m)
      val picked = mutable.ArrayBuffer.empty[Int]
      val rounds = mutable.ArrayBuffer.empty[Greedy.RoundStats]

      var state = tr.span("reuse.initial") { FollowerReuse.initial(g, anchors) }
      initial = state
      val cache = new Array[mutable.HashMap[Int, Int]](g.m)
      var staleNodes: Set[Int] = Set.empty

      for (round <- 1 to math.min(b, g.m)) tr.span("greedy.round") {
        val t0 = System.nanoTime()
        val candidates = tr.span("greedy.pick", "candidates") { (0 until g.m).filter(!anchors(_)) }
        val toCompute = mutable.ArrayBuffer.empty[(Int, Array[Int])]
        val totals = new Array[Long](g.m)
        var reusedFully = 0
        tr.span("greedy.cache", "split") {
          candidates.foreach { e =>
            val c = cache(e)
            if (round == 1 || c == null) toCompute += ((e, null))
            else {
              val staleIds = state.sla(e).filter(id => staleNodes.contains(id) || !c.contains(id))
              if (staleIds.isEmpty) {
                totals(e) = state.sla(e).iterator.map(id => c(id).toLong).sum
                reusedFully += 1
              } else toCompute += ((e, staleIds))
            }
          }
        }
        if (toCompute.nonEmpty) {
          val rows = job(tr, "gas", "followers.task") { acc =>
            val trussB = sc.broadcast(state.truss)
            val layerB = sc.broadcast(state.layer)
            val nodeOfB = sc.broadcast(state.tree.nodeOf)
            tr.count("sweep.broadcast_bytes", 12.0 * g.m)
            val out = spark.createDataset(toCompute.toSeq)
              .repartition(sc.defaultParallelism)
              .mapPartitions { it =>
                val clock = new TaskClock(acc)
                val finder = new FollowerFinder(gB.value)
                val t = trussB.value; val l = layerB.value; val nodeOf = nodeOfB.value
                it.map { case (e, staleIds) =>
                  val allow: Int => Boolean =
                    if (staleIds == null) null
                    else { val s = staleIds.toSet; s.contains }
                  val r = clock.time(finder.find(t, l, e, nodeOf, allow))
                  clock.routeSum += r.routeSize
                  (e, r.perNode.toSeq)
                }
              }
              .collect()
            trussB.destroy(); layerB.destroy(); nodeOfB.destroy()
            out
          }
          tr.span("greedy.cache", "merge") {
            val staleOf = toCompute.iterator.map { case (e, ids) => e -> ids }.toMap
            rows.foreach { case (e, perNode) =>
              val freshMap = perNode.toMap
              val old = cache(e)
              val merged = mutable.HashMap.empty[Int, Int]
              val staleIds = staleOf(e)
              state.sla(e).foreach { id =>
                val stale = staleIds == null || staleIds.contains(id)
                merged(id) = if (stale) freshMap.getOrElse(id, 0) else old(id)
              }
              cache(e) = merged
              totals(e) = merged.valuesIterator.map(_.toLong).sum
            }
          }
        }
        val bestE = tr.span("greedy.pick", "argmax") { candidates.minBy(e => (-totals(e), e)) }
        anchors(bestE) = true
        picked += bestE
        val refresh = tr.span("reuse.refresh") { FollowerReuse.refresh(g, state, bestE, anchors) }
        state = refresh.state
        staleNodes = refresh.staleNodes
        refresh.invalidatedEdges.foreach(e => cache(e) = null)
        cache(bestE) = null
        tr.count("reuse.stale_nodes", refresh.staleNodes.size)
        tr.count("reuse.invalidated_edges", refresh.invalidatedEdges.size)
        tr.count("greedy.candidates", candidates.size)
        tr.count("greedy.evaluated", toCompute.size)
        tr.count("greedy.reused_fully", reusedFully)
        rounds += Greedy.RoundStats(round, bestE, totals(bestE), toCompute.size, reusedFully,
                                    (System.nanoTime() - t0) / 1000000)
      }
      last = state
      Greedy.Result(picked.toSeq, finalGain(g, anchors, tr), rounds.toSeq)
    }
    tr.span("replay.measure", measure = true) { measureReuse(g, result.anchors, initial, last, tr) }
    result
  }

  /** Time the decompositions and tree steps `FollowerReuse.initial` and
    * each `refresh` made, by making them again from the same inputs: the
    * unanchored decomposition and tree build, then for each anchor in turn
    * the anchored decomposition and the rebuild of the components it
    * dirtied. Counts the edges each rebuild re-peels, and checks the results
    * against the library's first and last round states. Keeps only one
    * round's state at a time, so the replayed call retains nothing extra.
    */
  private def measureReuse(g: CompactGraph, picked: Seq[Int], initial: FollowerReuse.RoundState,
                           last: FollowerReuse.RoundState, tr: Tracer): Unit = {
    val anchors = new Array[Boolean](g.m)
    var dec = tr.span("truss.decompose", "initial", measure = true) { LocalTruss.decompose(g, anchors) }
    var tree = tr.span("tree.build", "initial", measure = true) { TrussTree.build(g, dec.truss) }
    require(dec.truss.sameElements(initial.truss) && tree.nodeOf.sameElements(initial.tree.nodeOf),
            "timed decomposition/build differ from FollowerReuse.initial")
    picked.foreach { x =>
      anchors(x) = true
      val prev = dec
      val prevTree = tree
      dec = tr.span("truss.decompose", "refresh", measure = true) { LocalTruss.decompose(g, anchors) }
      val dirty = mutable.HashSet[Int](x)
      var e = 0
      while (e < g.m) {
        if (dec.truss(e) != prev.truss(e) || dec.layer(e) != prev.layer(e)) dirty += e
        e += 1
      }
      val roots = dirty.iterator.map(prevTree.rootOf).filter(_ != -1).toSet
      tr.count("tree.rebuild_edges", roots.iterator.map(prevTree.subtreeEdges(_).length.toDouble).sum)
      tr.count("tree.rebuilds", 1)
      tree = tr.span("tree.rebuild", "refresh", measure = true) {
        TrussTree.rebuild(g, dec.truss, prevTree, dirty)
      }
    }
    require(dec.truss.sameElements(last.truss) && tree.nodeOf.sameElements(last.tree.nodeOf),
            "timed decompositions/rebuilds differ from FollowerReuse.refresh")
  }

  // ------------------------------------------------------------- BASE+

  def basePlus(spark: SparkSession, g: CompactGraph, b: Int, tr: Tracer): Greedy.Result =
    tr.span("greedy.select") {
      val gB = tr.span("sweep.broadcast") { spark.sparkContext.broadcast(g) }
      tr.count("sweep.broadcast_bytes", graphBytes(g))
      val anchors = new Array[Boolean](g.m)
      val picked = mutable.ArrayBuffer.empty[Int]
      val rounds = mutable.ArrayBuffer.empty[Greedy.RoundStats]
      for (round <- 1 to math.min(b, g.m)) tr.span("greedy.round") {
        val t0 = System.nanoTime()
        val dec = tr.span("truss.decompose", "round") { LocalTruss.decompose(g, anchors) }
        val candidates = tr.span("greedy.pick", "candidates") { (0 until g.m).filter(!anchors(_)) }
        val counts = findSweep(spark, gB, dec.truss, dec.layer, candidates, routes = false, tr)
        val (bestE, bestGain) = tr.span("greedy.pick", "argmax") { counts.minBy { case (e, c) => (-c, e) } }
        anchors(bestE) = true
        picked += bestE
        tr.count("greedy.candidates", candidates.size)
        tr.count("greedy.evaluated", candidates.size)
        rounds += Greedy.RoundStats(round, bestE, bestGain, candidates.size, 0,
                                    (System.nanoTime() - t0) / 1000000)
      }
      Greedy.Result(picked.toSeq, finalGain(g, anchors, tr), rounds.toSeq)
    }

  /** Greedy's private `finalGain`: TG of the finished anchor mask. */
  private def finalGain(g: CompactGraph, anchors: Array[Boolean], tr: Tracer): Long =
    tr.span("greedy.final_gain") {
      val base = tr.span("truss.decompose", "final") { LocalTruss.decompose(g) }
      tr.span("truss.decompose", "final_gain") { LocalTruss.trussGain(g, base, anchors) }
    }

  /** Plain follower sweep over `items`: (edge, follower count) per item for
    * a BASE+ round, (edge, route size) when `routes` (`Greedy.routeSizes`).
    */
  private def findSweep(spark: SparkSession, gB: Broadcast[CompactGraph], truss: Array[Int],
                        layer: Array[Int], items: Seq[Int], routes: Boolean,
                        tr: Tracer): Array[(Int, Int)] = {
    import spark.implicits._
    val sc = spark.sparkContext
    job(tr, if (routes) "route" else "baseplus", "followers.task") { acc =>
      val trussB = sc.broadcast(truss)
      val layerB = sc.broadcast(layer)
      tr.count("sweep.broadcast_bytes", 8.0 * truss.length)
      val out = spark.createDataset(items)
        .repartition(sc.defaultParallelism)
        .mapPartitions { it =>
          val clock = new TaskClock(acc)
          val finder = new FollowerFinder(gB.value)
          val t = trussB.value; val l = layerB.value
          it.map { e =>
            val r = clock.time(finder.find(t, l, e))
            clock.routeSum += r.routeSize
            (e, if (routes) r.routeSize else r.count)
          }
        }
        .collect()
      trussB.destroy(); layerB.destroy()
      out
    }
  }

  // ------------------------------------------------------------- baselines

  /** Rand, Sup and Tur, as `Baselines` runs them. */
  def baselines(spark: SparkSession, g: CompactGraph, b: Int, trials: Int, tr: Tracer): (Long, Long, Long) =
    tr.span("baselines.call") {
      val r = tr.span("baselines.rand") {
        maxGain(spark, g, (0 until g.m).toArray, b, trials, Workloads.RandSeed, tr)
      }
      val s = tr.span("baselines.sup") {
        maxGain(spark, g, Workloads.topFifth(g, (0 until g.m).map(g.support).toArray), b, trials,
                Workloads.SupSeed, tr)
      }
      val t = tr.span("baselines.tur") {
        maxGain(spark, g, Workloads.topFifth(g, routeSizes(spark, g, tr)), b, trials, Workloads.TurSeed, tr)
      }
      (r, s, t)
    }

  /** `Greedy.routeSizes`: round-one route size of every edge. */
  private def routeSizes(spark: SparkSession, g: CompactGraph, tr: Tracer): Array[Int] =
    tr.span("greedy.route_sizes") {
      val gB = tr.span("sweep.broadcast") { spark.sparkContext.broadcast(g) }
      tr.count("sweep.broadcast_bytes", graphBytes(g))
      val dec = tr.span("truss.decompose", "route") { LocalTruss.decompose(g) }
      val out = new Array[Int](g.m)
      findSweep(spark, gB, dec.truss, dec.layer, 0 until g.m, routes = true, tr)
        .foreach { case (e, s) => out(e) = s }
      out
    }

  /** `Baselines.maxGainOverTrials`, timing each trial's anchored
    * decomposition inside its task.
    */
  private def maxGain(spark: SparkSession, g: CompactGraph, pool: Array[Int], b: Int,
                      trials: Int, seed: Long, tr: Tracer): Long = {
    import spark.implicits._
    val sc = spark.sparkContext
    val (gB, poolB) = tr.span("sweep.broadcast") { (sc.broadcast(g), sc.broadcast(pool)) }
    val baseDec = tr.span("truss.decompose", "base") { LocalTruss.decompose(g) }
    job(tr, "trials", "truss.task") { acc =>
      val baseB = sc.broadcast(baseDec)
      tr.count("sweep.broadcast_bytes", graphBytes(g) + 4.0 * pool.length + 8.0 * g.m)
      spark.createDataset(0 until trials)
        .repartition(sc.defaultParallelism)
        .mapPartitions { it =>
          val clock = new TaskClock(acc)
          val graph = gB.value
          val base = baseB.value
          it.map { trial =>
            val rnd = new Random(seed * 1000003L + trial)
            val picked = rnd.shuffle(poolB.value.toVector).take(math.min(b, poolB.value.length))
            clock.time(LocalTruss.trussGain(graph, base, LocalTruss.anchorMask(graph.m, picked)))
          }
        }
        .collect()
        .max
    }
  }

  // ------------------------------------------------------------- helpers

  /** Bytes of the five CSR int arrays a graph broadcast ships (computed from
    * array sizes, not measured on the wire).
    */
  def graphBytes(g: CompactGraph): Double = 4.0 * (6L * g.m + g.n + 1)

  /** Run one Spark job inside a `sweep.job` span, then attach one span per
    * task and add up the tasks' kernel time: summed over tasks (CPU) and the
    * longest task's (the job's critical path).
    */
  private def job[T](tr: Tracer, role: String, taskName: String)
                    (run: CollectionAccumulator[TaskTiming] => T): T = {
    val acc = SparkSession.active.sparkContext.collectionAccumulator[TaskTiming](taskName)
    val out = tr.span("sweep.job", role)(run(acc))
    var longest = 0L
    acc.value.asScala.foreach { t =>
      val kernel = t.callNs.sum
      longest = math.max(longest, kernel)
      tr.record(taskName, "sweep.job", t.startNs, t.endNs)
      tr.count(s"$taskName.kernel_ns", kernel)
      if (taskName == "followers.task") {
        t.callNs.foreach(ns => tr.sample("followers.find_us", ns / 1e3))
        tr.count("followers.find_calls", t.callNs.length)
        tr.count("followers.route_size_sum", t.routeSum)
      } else t.callNs.foreach(ns => tr.sample("truss.task_decompose_ms", ns / 1e6))
    }
    tr.count(s"$taskName.critical_ns", longest)
    tr.count("sweep.tasks", acc.value.size)
    out
  }
}

/** Kernel-call timings of one Spark task. */
final case class TaskTiming(startNs: Long, endNs: Long, callNs: Array[Long], routeSum: Long)

/** Created inside a Spark task: times the kernel calls made through
  * [[time]] and reports them to `acc` when the task completes, so the rows
  * the job returns stay those the library's job returns.
  */
final class TaskClock(acc: CollectionAccumulator[TaskTiming]) {
  private val start = System.nanoTime()
  private val calls = new mutable.ArrayBuilder.ofLong
  var routeSum = 0L
  TaskContext.get().addTaskCompletionListener[Unit] { _ =>
    acc.add(TaskTiming(start, System.nanoTime(), calls.result(), routeSum))
  }

  def time[T](f: => T): T = {
    val s0 = System.nanoTime()
    val r = f
    calls += System.nanoTime() - s0
    r
  }
}
