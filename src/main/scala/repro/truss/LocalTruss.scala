package repro.truss

import repro.graph.CompactGraph
import scala.collection.mutable

/** Exact truss decomposition kernel (paper's Algorithm 1) with two
  * extensions the paper relies on:
  *
  *  - **layers**: within each k-hull the peel proceeds in sweeps; `layer(e)`
  *    is the 1-based sweep index in which `e` was removed (the paper's
  *    `l(e)`, Section III-B). A sweep removes every edge whose support was
  *    ≤ k-2 at sweep start; support updates within the sweep feed the *next*
  *    sweep.
  *  - **anchors**: anchored edges have `sup = +∞` conceptually — they are
  *    never removed, keep providing triangles at every phase, and receive
  *    `truss = AnchorTruss` (`Int.MaxValue`), `layer = 0` in the output. This
  *    object owns that encoding; every other module compares against
  *    [[AnchorTruss]].
  *
  * Every decomposition is one peel over whole triangle-connected components
  * of the graph ([[CompactGraph]]'s component index). A removal changes
  * supports only through triangles, and a triangle's three edges share a
  * component, so each component peels exactly as it would inside the whole
  * graph, sweep for sweep: `decompose` peels all of them, while `gainAround`,
  * the GAS refresh and AKT peel only the components a new anchor reaches
  * ([[decomposeAround]]) and splice them into whole-graph arrays
  * ([[Local.writeTo]]).
  *
  * This kernel runs on the driver and inside Spark tasks (over a broadcast
  * [[CompactGraph]]).
  */
object LocalTruss {

  /** `truss(e)` / `layer(e)` per edge; `kMax` = max trussness over
    * non-anchored edges (2 for a triangle-free graph).
    */
  final case class Result(truss: Array[Int], layer: Array[Int], kMax: Int)

  /** An anchor's trussness. A constant, so the follower and tree loops that
    * compare against it compile to a literal.
    */
  final val AnchorTruss = Int.MaxValue

  /** Decompose `g`; edges whose id is in `anchors` (a mask of length m,
    * or null for none) are never removed. Runs the component peel over
    * every component of `g`; an edge in no triangle goes in the first sweep
    * of phase 2, as it would in a peel of the whole graph.
    */
  def decompose(g: CompactGraph, anchors: Array[Boolean] = null): Result = {
    val anch = if (anchors == null) new Array[Boolean](g.m) else checkMask(g, anchors)
    val local = peel(g, anch, g.compEdges)
    val truss = new Array[Int](g.m)
    val layer = new Array[Int](g.m)
    var e = 0
    while (e < g.m) {
      if (anch(e)) truss(e) = AnchorTruss // layer stays 0
      else { truss(e) = 2; layer(e) = 1 }
      e += 1
    }
    local.writeTo(truss, layer)
    Result(truss, layer, local.kMax)
  }

  /** Trussness gain of anchoring `anchors` relative to the base decomposition
    * `base` (paper's Definition 4): Σ over non-anchored edges of the
    * trussness increment. `base` is the decomposition of `g` under a subset
    * of `anchors` (or none). An O(m) scan of the mask finds the anchors new
    * to `base`, then [[gainAround]] peels their components. Library code
    * calls [[gainAround]]; this stays public for atrbench and the tests.
    */
  def trussGain(g: CompactGraph, base: Result, anchors: Array[Boolean]): Long = {
    checkMask(g, anchors)
    val fresh = mutable.ArrayBuilder.make[Int]
    var e = 0
    while (e < g.m) {
      if (anchors(e) && base.truss(e) != AnchorTruss) fresh += e
      e += 1
    }
    gainAround(g, base, anchors, fresh.result())
  }

  /** [[trussGain]] for a caller that knows the anchors new to `base`:
    * `fresh` must hold every edge of `anchors` that `base` does not anchor.
    * A component whose anchors all are anchors in `base` peels exactly as
    * in `base` and adds 0, so only the components of `fresh` are peeled, in
    * O(T_C + m_C) for their T_C triangles and m_C edges.
    */
  private[repro] def gainAround(g: CompactGraph, base: Result, anchors: Array[Boolean],
                                fresh: Iterable[Int]): Long = {
    val after = decomposeAround(g, anchors, fresh)
    var gain = 0L
    var i = 0
    while (i < after.ids.length) {
      val x = after.ids(i)
      if (!anchors(x)) gain += (after.truss(i) - base.truss(x)).toLong
      i += 1
    }
    gain
  }

  /** The decomposition of some whole components of a graph, alone:
    * `truss(i)` and `layer(i)` belong to edge `ids(i)`.
    */
  private[repro] final class Local(val ids: Array[Int], val truss: Array[Int],
                                   val layer: Array[Int], val kMax: Int) {
    /** Splice into whole-graph arrays: `truss(ids(i)) = this.truss(i)`, and
      * the same for layers.
      */
    def writeTo(truss: Array[Int], layer: Array[Int]): Unit = {
      var i = 0
      while (i < ids.length) {
        truss(ids(i)) = this.truss(i)
        layer(ids(i)) = this.layer(i)
        i += 1
      }
    }
  }

  /** Decompose only the triangle-connected components that hold `edges`
    * (an edge in no triangle alone): their edges get the trussness and
    * layer that a decomposition of all of `g` gives them, since no triangle
    * crosses a component boundary.
    */
  private[repro] def decomposeAround(g: CompactGraph, anchors: Array[Boolean], edges: Iterable[Int]): Local =
    peel(g, checkMask(g, anchors), g.componentEdges(edges))

  private def checkMask(g: CompactGraph, anchors: Array[Boolean]): Array[Boolean] = {
    require(anchors.length == g.m,
            s"anchor mask has length ${anchors.length}, but the graph has ${g.m} edges")
    anchors
  }

  /** The peel of the whole components whose edges are `ids`, each
    * component's edges in the order of `g.compEdges`, an edge in no triangle
    * as a component of its own (it has no triangles, so it goes in sweep 1
    * of phase 2, or stays if it is an anchor). Supports and triangles
    * come from the graph's triangle index; a co-edge of `ids(i)` shares its
    * component, so it sits at local index `compSlot(co) + i - compSlot(ids(i))`.
    * Each phase k is seeded from the alive non-anchor edges, in local order,
    * from a list that drops removed edges as it is scanned. O(T_C + m_C).
    */
  private def peel(g: CompactGraph, anch: Array[Boolean], ids: Array[Int]): Local = {
    val n = ids.length
    val slot = g.compSlot
    val sup = new Array[Int](n)
    val alive = new Array[Boolean](n)
    val truss = new Array[Int](n)
    val layer = new Array[Int](n)
    // rest(0 until nRest): alive non-anchor edges as of the last phase scan
    val rest = new Array[Int](n)
    var nRest = 0
    var i = 0
    while (i < n) {
      sup(i) = g.support(ids(i))
      alive(i) = true
      if (anch(ids(i))) truss(i) = AnchorTruss // layer stays 0
      else { rest(nRest) = i; nRest += 1 }
      i += 1
    }
    var aliveNonAnchor = nRest
    var kMax = 2
    var k = 2
    // scheduled(i): i is already queued for removal in the current or next
    // sweep, to avoid duplicates in the queue. An edge is queued at most
    // once per decomposition, so one n-slot queue holds every sweep: the
    // current sweep is queue(head until sweepEnd), the next one is
    // queue(sweepEnd until tail).
    val scheduled = new Array[Boolean](n)
    val queue = new Array[Int](n)
    var head = 0
    var tail = 0
    while (aliveNonAnchor > 0) {
      // seed the phase-k queue, compacting removed edges out of rest
      var j = 0
      var kept = 0
      while (j < nRest) {
        val x = rest(j)
        if (alive(x)) {
          rest(kept) = x; kept += 1
          if (sup(x) <= k - 2 && !scheduled(x)) { queue(tail) = x; tail += 1; scheduled(x) = true }
        }
        j += 1
      }
      nRest = kept
      var sweep = 0
      while (head < tail) {
        sweep += 1
        val sweepEnd = tail
        while (head < sweepEnd) {
          val x = queue(head)
          head += 1
          // remove x: record trussness/layer, cascade support decrements
          truss(x) = k
          layer(x) = sweep
          alive(x) = false
          aliveNonAnchor -= 1
          if (k > kMax) kMax = k
          val delta = x - slot(ids(x))
          g.foreachTriangle(ids(x)) { (a, b) =>
            val x1 = slot(a) + delta
            val x2 = slot(b) + delta
            if (alive(x1) && alive(x2)) {
              sup(x1) -= 1
              sup(x2) -= 1
              if (!anch(a) && sup(x1) <= k - 2 && !scheduled(x1)) { queue(tail) = x1; tail += 1; scheduled(x1) = true }
              if (!anch(b) && sup(x2) <= k - 2 && !scheduled(x2)) { queue(tail) = x2; tail += 1; scheduled(x2) = true }
            }
          }
        }
      }
      k += 1
    }
    new Local(ids, truss, layer, kMax)
  }

  /** Anchor-set from edge ids. Only atrbench and the tests call it. */
  def anchorMask(m: Int, ids: Iterable[Int]): Array[Boolean] = {
    val a = new Array[Boolean](m)
    ids.foreach(a(_) = true)
    a
  }
}
