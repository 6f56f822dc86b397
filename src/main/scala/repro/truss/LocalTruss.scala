package repro.truss

import repro.graph.CompactGraph

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
  *    `truss = Int.MaxValue`, `layer = 0` in the output.
  *
  * This kernel runs on the driver and inside Spark tasks (over a broadcast
  * [[CompactGraph]]); the distributed DataFrame formulation is
  * [[SparkTruss]] and is cross-validated against this one.
  */
object LocalTruss {

  /** `truss(e)` / `layer(e)` per edge; `kMax` = max trussness over
    * non-anchored edges (2 for a triangle-free graph).
    */
  final case class Result(truss: Array[Int], layer: Array[Int], kMax: Int)

  val AnchorTruss: Int = Int.MaxValue

  /** Decompose `g`; edges whose id is in `anchors` are never removed.
    * Supports and triangles come from the graph's triangle index; each
    * phase k is seeded from the alive non-anchor edges, in ascending id
    * order, from a list that drops removed edges as it is scanned.
    */
  def decompose(g: CompactGraph, anchors: Array[Boolean] = null): Result = {
    val m = g.m
    val anch = if (anchors == null) new Array[Boolean](m) else anchors
    val sup = new Array[Int](m)
    val alive = new Array[Boolean](m)
    val truss = new Array[Int](m)
    val layer = new Array[Int](m)
    // rest(0 until nRest): alive non-anchor edges as of the last phase scan
    val rest = new Array[Int](m)
    var nRest = 0
    var e = 0
    while (e < m) {
      sup(e) = g.support(e)
      alive(e) = true
      if (!anch(e)) { rest(nRest) = e; nRest += 1 }
      e += 1
    }
    var aliveNonAnchor = nRest
    var kMax = 2
    var k = 2
    // scheduled(e): e is already queued for removal in the current or next
    // sweep, to avoid duplicates in the queue. An edge is queued at most
    // once per decomposition, so one m-slot queue holds every sweep: the
    // current sweep is queue(head until sweepEnd), the next one is
    // queue(sweepEnd until tail).
    val scheduled = new Array[Boolean](m)
    val queue = new Array[Int](m)
    var head = 0
    var tail = 0
    while (aliveNonAnchor > 0) {
      // seed the phase-k queue, compacting removed edges out of rest
      var i = 0
      var kept = 0
      while (i < nRest) {
        val x = rest(i)
        if (alive(x)) {
          rest(kept) = x; kept += 1
          if (sup(x) <= k - 2 && !scheduled(x)) { queue(tail) = x; tail += 1; scheduled(x) = true }
        }
        i += 1
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
          g.foreachTriangle(x) { (e1, e2) =>
            if (alive(e1) && alive(e2)) {
              sup(e1) -= 1
              sup(e2) -= 1
              if (!anch(e1) && sup(e1) <= k - 2 && !scheduled(e1)) { queue(tail) = e1; tail += 1; scheduled(e1) = true }
              if (!anch(e2) && sup(e2) <= k - 2 && !scheduled(e2)) { queue(tail) = e2; tail += 1; scheduled(e2) = true }
            }
          }
        }
      }
      k += 1
    }
    e = 0
    while (e < m) {
      if (anch(e)) { truss(e) = AnchorTruss; layer(e) = 0 }
      e += 1
    }
    Result(truss, layer, kMax)
  }

  /** Trussness gain of anchoring `anchors` relative to the base decomposition
    * `base` (paper's Definition 4): Σ over non-anchored edges of the
    * trussness increment.
    */
  def trussGain(g: CompactGraph, base: Result, anchors: Array[Boolean]): Long = {
    val after = decompose(g, anchors)
    var gain = 0L
    var e = 0
    while (e < g.m) {
      if (!anchors(e)) gain += (after.truss(e) - base.truss(e)).toLong
      e += 1
    }
    gain
  }

  /** Convenience: anchor-set from edge ids. */
  def anchorMask(m: Int, ids: Iterable[Int]): Array[Boolean] = {
    val a = new Array[Boolean](m)
    ids.foreach(a(_) = true)
    a
  }
}
