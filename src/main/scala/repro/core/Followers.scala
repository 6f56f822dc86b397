package repro.core

import repro.graph.CompactGraph
import repro.truss.LocalTruss.AnchorTruss

/** Result of a follower computation for one candidate anchor.
  *
  * @param followers follower edge ids (each gains exactly +1 trussness)
  * @param routeSize number of candidate edges examined along upward-routes
  *                  (the paper's Table IV "upward route size")
  * @param perNode   follower count per truss-component-tree node id
  *                  (empty when no `nodeOf` array was supplied)
  */
final case class FindResult(followers: Array[Int], routeSize: Int,
                            perNode: Map[Int, Int]) {
  def count: Int = followers.length
}

/** Follower computation for a candidate anchor edge — the paper's
  * Algorithm 3 (`GetFollowers`) built on the upward-route (Definition 7),
  * the effective-triangle support check `s⁺` (Definition 8, Lemma 3) and
  * the `Retract` cascade.
  *
  * Semantics recap: anchoring `x` gives it infinite support; an edge whose
  * trussness then rises (by exactly 1, Lemma 1) is a *follower*. Candidate
  * followers live on upward-routes rooted at `x` (Lemma 2): neighbor-edges
  * of `x` deleted no earlier than `x` in the truss-decomposition order
  * (trussness, then layer), extended through triangle-adjacent edges of the
  * same trussness in non-decreasing layer order. One min-heap ordered by
  * (trussness, layer, id) holds the route, so it empties each trussness
  * level before it starts the next; an edge survives if it has at least
  * `t(e)-1` effective triangles, otherwise it is eliminated and its
  * optimistic contribution retracted from already-survived edges.
  *
  * A `FollowerFinder` owns reusable O(m) workspace so it can be called for
  * many candidates cheaply; a [[Sweep]] creates one per Spark task over
  * the broadcast graph. Each edge enters the heap at most once per call,
  * so the heap, the list of touched edges and the retract stack are int
  * arrays of length m, and only the touched edges are reset afterwards.
  *
  * Previously anchored edges carry trussness `AnchorTruss` in the input
  * array: they always count as survived support providers and are never
  * candidates or followers.
  */
final class FollowerFinder(g: CompactGraph) {

  private val UNCHECKED: Byte = 0
  private val QUEUED: Byte = 1 // in the heap; otherwise counts as unchecked
  private val SURVIVED: Byte = 2
  private val ELIMINATED: Byte = 3

  private val status = new Array[Byte](g.m)
  // candidate-anchor membership mask for the current call (cleared after)
  private val isCand = new Array[Boolean](g.m)
  // s⁺ of an edge, set when it is popped and read only while it is
  // SURVIVED in the same call, so it needs no reset
  private val sPlus = new Array[Int](g.m)
  private val heap = new Array[Int](g.m)
  // every edge popped this call, in pop order; the heap is empty at the
  // end, so these are all the edges whose status the call changed
  private val touched = new Array[Int](g.m)
  private val retractStack = new Array[Int](g.m)

  /** Compute the followers of anchoring edge `x`.
    *
    * @param truss     trussness per edge (AnchorTruss for existing anchors)
    * @param layer     deletion layer per edge (paper's l(e))
    * @param x         candidate anchor edge id (must not be an anchor)
    * @param nodeOf    optional truss-tree node id per edge (for GAS reuse)
    * @param allowNode when non-null, only seeds whose tree node satisfies
    *                  the predicate are explored (GAS stale-node restriction)
    */
  def find(truss: Array[Int], layer: Array[Int], x: Int,
           nodeOf: Array[Int] = null,
           allowNode: Int => Boolean = null): FindResult =
    findMulti(truss, layer, Array(x), nodeOf, allowNode)

  /** Multi-anchor variant: all edges in `xs` are anchored simultaneously
    * (used by the AKT vertex-anchoring baseline, where anchoring a vertex
    * anchors all its incident edges). For a single anchor this is exact
    * (Lemmas 1-3); for several it is the natural generalization used as the
    * AKT greedy score. `onlyLevel >= 0` restricts the search to one
    * trussness level (AKT only credits followers at level k-1).
    */
  def findMulti(truss: Array[Int], layer: Array[Int], xs: Array[Int],
                nodeOf: Array[Int] = null,
                allowNode: Int => Boolean = null,
                onlyLevel: Int = -1): FindResult = {
    def isAnchor(e: Int): Boolean = truss(e) == AnchorTruss
    def routable(e: Int): Boolean = !isCand(e) && !isAnchor(e) && status(e) == UNCHECKED

    // the heap order: (trussness, layer, id)
    def before(a: Int, b: Int): Boolean =
      truss(a) < truss(b) || truss(a) == truss(b) && (layer(a) < layer(b) || layer(a) == layer(b) && a < b)
    var size = 0
    def push(e: Int): Unit = {
      status(e) = QUEUED
      var i = size
      size += 1
      while (i > 0 && before(e, heap((i - 1) >> 1))) { heap(i) = heap((i - 1) >> 1); i = (i - 1) >> 1 }
      heap(i) = e
    }
    def pop(): Int = {
      val top = heap(0)
      size -= 1
      val last = heap(size)
      var i = 0
      var c = 1
      while (c < size) {
        if (c + 1 < size && before(heap(c + 1), heap(c))) c += 1
        if (before(heap(c), last)) { heap(i) = heap(c); i = c; c = 2 * i + 1 }
        else c = size
      }
      heap(i) = last
      top
    }

    xs.foreach { x =>
      require(!isAnchor(x), s"edge $x is already an anchor")
      isCand(x) = true
    }
    // seeds: neighbor-edges of some x satisfying Lemma 2 condition (i)
    xs.foreach { x =>
      val tx = truss(x)
      val lx = layer(x)
      g.foreachTriangle(x) { (e1, e2) =>
        var s = 0
        while (s < 2) {
          val e = if (s == 0) e1 else e2
          if (routable(e) && (truss(e) > tx || (truss(e) == tx && layer(e) > lx)) &&
              (onlyLevel < 0 || truss(e) == onlyLevel) &&
              (allowNode == null || allowNode(nodeOf(e))))
            push(e)
          s += 1
        }
      }
    }

    // Can neighbor `z` (with status `zStatus`) support checker `c` of trussness
    // `level` in an effective triangle? (Definition 8 conditions (ii)/(iii);
    // edges below the level count as eliminated per Algorithm 3 line 6, so
    // what an earlier level left in `status` is never read; the candidate
    // anchor and prior anchors always count.)
    def countable(level: Int, c: Int, z: Int, zStatus: Byte): Boolean = {
      if (isCand(z) || isAnchor(z)) true
      else if (truss(z) < level) false
      else if (zStatus == ELIMINATED) false
      else if (zStatus == SURVIVED) true
      else truss(z) > level || layer(c) <= layer(z) // unchecked: need c < z
    }

    // Retract: eliminate `e0` and withdraw its contribution from survived
    // edges of its level whose s⁺ counted a triangle with it. Iterative to
    // survive deep cascades. A stacked edge keeps its status until it is
    // popped, where that status is read as the one its survivors counted,
    // so "ELIMINATED" always means "already withdrawn": a triangle is
    // withdrawn from a survivor once, by the first of its other two edges
    // popped.
    def retract(e0: Int): Unit = {
      val level = truss(e0)
      var top = 0
      retractStack(top) = e0; top += 1
      while (top > 0) {
        top -= 1
        val e = retractStack(top)
        val prev = status(e)
        status(e) = ELIMINATED
        g.foreachTriangle(e) { (p, q) =>
          var s = 0
          while (s < 2) {
            val sv = if (s == 0) p else q
            val third = if (s == 0) q else p
            // only survived edges of this level track an s⁺ count
            if (truss(sv) == level && status(sv) == SURVIVED &&
                countable(level, sv, e, prev) && countable(level, sv, third, status(third))) {
              sPlus(sv) -= 1
              if (sPlus(sv) == level - 2) { retractStack(top) = sv; top += 1 }
            }
            s += 1
          }
        }
      }
    }

    // Every popped edge is still QUEUED: an edge is pushed only while
    // unchecked, and a retract changes only the popped edge and SURVIVED
    // edges, never a queued one. A route extends only within its level and
    // no earlier in the order, so the pops run level by level.
    var nTouched = 0
    while (size > 0) {
      val e = pop()
      touched(nTouched) = e
      nTouched += 1
      val level = truss(e)
      var sp = 0
      g.foreachTriangle(e) { (e1, e2) =>
        if (countable(level, e, e1, status(e1)) && countable(level, e, e2, status(e2))) sp += 1
      }
      sPlus(e) = sp
      if (sp >= level - 1) {
        status(e) = SURVIVED
        // extend the route: same-level unchecked neighbor-edges deleted
        // no earlier than e (Algorithm 3 lines 12-14)
        g.foreachTriangle(e) { (e1, e2) =>
          if (routable(e1) && truss(e1) == level && layer(e) <= layer(e1)) push(e1)
          if (routable(e2) && truss(e2) == level && layer(e) <= layer(e2)) push(e2)
        }
      } else retract(e)
    }

    // the survivors are the followers; compact them to the front of
    // `touched` while resetting the workspace
    var nFollowers = 0
    var i = 0
    while (i < nTouched) {
      val e = touched(i)
      if (status(e) == SURVIVED) { touched(nFollowers) = e; nFollowers += 1 }
      status(e) = UNCHECKED
      i += 1
    }
    xs.foreach(isCand(_) = false)
    val followers = java.util.Arrays.copyOf(touched, nFollowers)
    val perNode = if (nodeOf == null) Map.empty[Int, Int] else followers.groupMapReduce(nodeOf(_))(_ => 1)(_ + _)
    FindResult(followers, nTouched, perNode)
  }
}
