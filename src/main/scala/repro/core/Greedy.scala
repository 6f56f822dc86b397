package repro.core

import org.apache.spark.sql.SparkSession
import repro.graph.CompactGraph
import repro.truss.LocalTruss
import scala.collection.mutable
import scala.util.Using

/** The greedy framework of the paper in its three incarnations:
  *
  *  - [[base]]   — Algorithm 2: every candidate's trussness gain via a full
  *                 anchored truss decomposition, every round. O(b·m^2.5).
  *  - [[basePlus]] — BASE with Algorithm 3: per-candidate upward-route +
  *                 support-check follower computation.
  *  - [[gas]]    — Algorithm 6: BASE+ plus the truss-component tree and
  *                 cross-round result reuse of Algorithms 4-5.
  *
  * All three run one round loop and differ only in how a round's candidates
  * are scored, so they share one deterministic tie-break (max gain, then
  * smallest edge id) and their anchor sequences are comparable
  * edge-for-edge; property tests assert GAS ≡ BASE+ ≡ BASE.
  *
  * The per-round candidate sweep (`for each e ∈ E\A`) is the bulk-parallel
  * part and runs on a [[Sweep]] over the broadcast [[CompactGraph]] with the
  * round's decomposition as job context; the driver keeps only the greedy
  * selection and (for GAS) the tree/reuse bookkeeping.
  */
object Greedy {

  /** Per-round bookkeeping: candidates evaluated on Spark vs fully reused
    * from the cache (GAS), and the round's marginal gain.
    */
  final case class RoundStats(round: Int, anchor: Int, marginalGain: Long,
                              evaluated: Int, reusedFully: Int, millis: Long)

  /** `gain` is the exact final TG(A, G) (Definition 4), measured by one
    * anchored decomposition against the untouched graph — the telescoped
    * per-round follower counts can overstate it when a chosen anchor had
    * itself gained trussness from earlier anchors (it leaves the E\A sum).
    */
  final case class Result(anchors: Seq[Int], gain: Long, rounds: Seq[RoundStats]) {
    def totalEvaluations: Long = rounds.map(_.evaluated.toLong).sum
  }

  /** Algorithm 2: an anchored truss decomposition per candidate per round.
    * The round's decomposition already holds the earlier anchors, so each
    * candidate is the only anchor new to it and peels only its own
    * component. Each task toggles the candidate in its own clone of the
    * anchor mask: the broadcast mask is shared by every task in an executor
    * JVM.
    */
  def base(spark: SparkSession, g: CompactGraph, b: Int): Result =
    select(spark, g, b)(sweepAll(spark, g, (graph, dec, anchors) => {
      val mask = anchors.clone()
      e => {
        mask(e) = true
        val gain = LocalTruss.gainAround(graph, dec, mask, Seq(e))
        mask(e) = false
        gain
      }
    }))

  /** BASE with upward-route/support-check follower computation (Alg. 3). */
  def basePlus(spark: SparkSession, g: CompactGraph, b: Int): Result =
    select(spark, g, b)(sweepAll(spark, g, (graph, dec, _) => {
      val finder = new FollowerFinder(graph)
      e => finder.find(dec.truss, dec.layer, e).count.toLong
    }))

  /** Algorithm 6: greedy with tree-based cross-round result reuse. */
  def gas(spark: SparkSession, g: CompactGraph, b: Int): Result =
    select(spark, g, b)(new Reuse(spark, g, _))

  /** Route sizes of every edge in round one (Table IV / the Tur baseline):
    * computed Spark-parallel over the broadcast graph.
    */
  def routeSizes(spark: SparkSession, g: CompactGraph): Array[Int] =
    Using.resource(new Sweep(spark, g))(routeSizes(spark, _, g, LocalTruss.decompose(g)))

  /** [[routeSizes]] on an open sweep of `g`, against `dec`, the unanchored
    * decomposition of `g`. A route starts at the anchor's triangle
    * neighbours (Lemma 2), so only the edges that lie in a triangle,
    * `g.compEdges`, are swept; every other edge's route size is 0.
    */
  private[core] def routeSizes(spark: SparkSession, sweep: Sweep, g: CompactGraph,
                               dec: LocalTruss.Result): Array[Int] = {
    import spark.implicits._
    val out = new Array[Int](g.m)
    sweep.run(dec, g.compEdges.toSeq) { (graph, dec) =>
      val finder = new FollowerFinder(graph)
      e => (e, finder.find(dec.truss, dec.layer, e).routeSize)
    }.foreach { case (e, s) => out(e) = s }
    out
  }

  /** A round's scores: `gain(e)` for every candidate `e`, and how many
    * candidates were evaluated on Spark vs fully reused from a cache.
    */
  private final case class Scored(gain: Array[Long], evaluated: Int, reusedFully: Int)

  /** How one greedy variant scores a round's candidates. */
  private trait Scorer {
    def score(anchors: Array[Boolean], candidates: IndexedSeq[Int]): Scored

    /** Called once `x` has been added to `anchors`. */
    def anchored(x: Int, anchors: Array[Boolean]): Unit = ()
  }

  /** The greedy loop: each round scores the non-anchored edges and anchors
    * the best one (max gain, then smallest edge id).
    */
  private def select(spark: SparkSession, g: CompactGraph, b: Int)(scorer: Sweep => Scorer): Result = {
    require(b >= 0, s"b must be non-negative, got $b")
    Using.resource(new Sweep(spark, g)) { sweep =>
      val s = scorer(sweep)
      val anchors = new Array[Boolean](g.m)
      val rounds = mutable.ArrayBuffer.empty[RoundStats]
      for (round <- 1 to math.min(b, g.m)) {
        val t0 = System.nanoTime()
        val candidates = (0 until g.m).filter(!anchors(_))
        val scored = s.score(anchors, candidates)
        val best = candidates.minBy(e => (-scored.gain(e), e))
        anchors(best) = true
        s.anchored(best, anchors)
        rounds += RoundStats(round, best, scored.gain(best), scored.evaluated, scored.reusedFully,
                             (System.nanoTime() - t0) / 1000000)
      }
      val picked = rounds.map(_.anchor).toSeq
      Result(picked, finalGain(g, anchors, picked), rounds.toSeq)
    }
  }

  /** Exact TG(A, G) for a finished anchor mask: a peel of the components
    * of its anchors, `picked`, none of which the unanchored base holds.
    */
  private def finalGain(g: CompactGraph, anchors: Array[Boolean], picked: Seq[Int]): Long =
    LocalTruss.gainAround(g, LocalTruss.decompose(g), anchors, picked)

  /** BASE and BASE+: decompose, then sweep every candidate. `kernel` sets a
    * task up from the graph, the round's decomposition and its anchor mask,
    * and returns the gain of anchoring one more edge.
    */
  private def sweepAll(spark: SparkSession, g: CompactGraph,
                       kernel: (CompactGraph, LocalTruss.Result, Array[Boolean]) => Int => Long)
                      (sweep: Sweep): Scorer =
    (anchors, candidates) => {
      import spark.implicits._
      val gain = new Array[Long](g.m)
      sweep.run((LocalTruss.decompose(g, anchors), anchors.clone()), candidates) {
        case (graph, (dec, mask)) =>
          val f = kernel(graph, dec, mask)
          e => (e, f(e))
      }.foreach { case (e, v) => gain(e) = v }
      Scored(gain, candidates.size, 0)
    }

  /** GAS: candidates whose cached per-node follower counts are all still
    * valid are summed on the driver; the rest are swept, restricted to their
    * stale nodes, and merged into the cache. Each pick refreshes the tree
    * and invalidation info (Algorithm 5).
    */
  private final class Reuse(spark: SparkSession, g: CompactGraph, sweep: Sweep) extends Scorer {
    private var state = FollowerReuse.initial(g, new Array[Boolean](g.m))
    // cache(e): node id -> follower count of e within that node; null when
    // the whole entry must be recomputed (round 1 or invalidated edge)
    private val cache = new Array[mutable.HashMap[Int, Int]](g.m)
    private var staleNodes: Set[Int] = Set.empty // nodes invalidated by last anchor

    def score(anchors: Array[Boolean], candidates: IndexedSeq[Int]): Scored = {
      import spark.implicits._
      val toCompute = mutable.ArrayBuffer.empty[(Int, Array[Int])] // (e, staleIds or null=full)
      val totals = new Array[Long](g.m)
      var reusedFully = 0
      candidates.foreach { e =>
        val c = cache(e)
        if (c == null) toCompute += ((e, null))
        else {
          val staleIds = state.sla(e).filter(id => staleNodes.contains(id) || !c.contains(id))
          if (staleIds.isEmpty) {
            totals(e) = state.sla(e).iterator.map(id => c(id).toLong).sum
            reusedFully += 1
          } else toCompute += ((e, staleIds))
        }
      }
      val fresh = sweep.run((state.truss, state.layer, state.tree.nodeOf), toCompute.toSeq) {
        case (graph, (t, l, nodeOf)) =>
          val finder = new FollowerFinder(graph)
          item => {
            val (e, staleIds) = item
            val allow: Int => Boolean =
              if (staleIds == null) null
              else { val s = staleIds.toSet; s.contains }
            (e, finder.find(t, l, e, nodeOf, allow).perNode.toSeq)
          }
      }
      val staleOf = toCompute.toMap
      fresh.foreach { case (e, perNode) =>
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
      Scored(totals, toCompute.size, reusedFully)
    }

    override def anchored(x: Int, anchors: Array[Boolean]): Unit = {
      val refresh = FollowerReuse.refresh(g, state, x, anchors)
      state = refresh.state
      staleNodes = refresh.staleNodes
      refresh.invalidatedEdges.foreach(e => cache(e) = null)
      cache(x) = null
    }
  }
}
