package repro.core

import repro.graph.CompactGraph
import repro.truss.LocalTruss.AnchorTruss
import scala.collection.mutable

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
  * same trussness in non-decreasing layer order. Each trussness level is
  * processed on its own layer-keyed min-heap; an edge survives if it has at
  * least `t(e)-1` effective triangles, otherwise it is eliminated and its
  * optimistic contribution retracted from already-survived edges.
  *
  * A `FollowerFinder` owns reusable O(m) workspace so it can be called for
  * many candidates cheaply; a [[Sweep]] creates one per Spark task over
  * the broadcast graph.
  *
  * Previously anchored edges carry trussness `AnchorTruss` in the input
  * array: they always count as survived support providers and are never
  * candidates or followers.
  */
final class FollowerFinder(g: CompactGraph) {

  private val UNCHECKED: Byte = 0
  private val SURVIVED: Byte = 1
  private val ELIMINATED: Byte = 2

  private val status = new Array[Byte](g.m)
  // candidate-anchor membership mask for the current call (cleared after)
  private val isCand = new Array[Boolean](g.m)
  private val inHeap = new Array[Boolean](g.m)
  private val sPlus = new Array[Int](g.m)
  // every edge ever pushed to a heap this level; statuses/flags are only
  // ever modified for pushed edges, so resetting these restores the
  // workspace in O(|route|) rather than O(m)
  private val touched = new mutable.ArrayBuffer[Int]()

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
    xs.foreach { x =>
      require(!isAnchor(x), s"edge $x is already an anchor")
      isCand(x) = true
    }

    // seeds: neighbor-edges of some x satisfying Lemma 2 condition (i),
    // grouped by trussness level, processed in ascending level order
    val seedsByLevel = mutable.SortedMap.empty[Int, mutable.ArrayBuffer[Int]]
    val seedSeen = mutable.HashSet.empty[Int]
    xs.foreach { x =>
      val tx = truss(x)
      val lx = layer(x)
      g.foreachTriangle(x) { (e1, e2) =>
        var s = 0
        while (s < 2) {
          val e = if (s == 0) e1 else e2
          if (!isAnchor(e) && !isCand(e) && !seedSeen.contains(e) &&
              (truss(e) > tx || (truss(e) == tx && layer(e) > lx)) &&
              (onlyLevel < 0 || truss(e) == onlyLevel) &&
              (allowNode == null || allowNode(nodeOf(e)))) {
            seedSeen += e
            seedsByLevel.getOrElseUpdate(truss(e), mutable.ArrayBuffer.empty) += e
          }
          s += 1
        }
      }
    }

    val followers = mutable.ArrayBuffer.empty[Int]
    val perNode = mutable.HashMap.empty[Int, Int]
    var routeSize = 0
    for ((level, seeds) <- seedsByLevel)
      routeSize += processLevel(truss, layer, level, seeds, followers, perNode, nodeOf)
    xs.foreach(isCand(_) = false)
    FindResult(followers.toArray, routeSize, perNode.toMap)
  }

  /** Run the heap loop for one trussness level; returns edges examined. */
  private def processLevel(truss: Array[Int], layer: Array[Int],
                           level: Int, seeds: collection.Seq[Int],
                           followers: mutable.ArrayBuffer[Int],
                           perNode: mutable.HashMap[Int, Int],
                           nodeOf: Array[Int]): Int = {
    def isAnchor(e: Int): Boolean = truss(e) == AnchorTruss

    // Can neighbor `z` (with status `zStatus`) support checker `c` in an
    // effective triangle? (Definition 8 conditions (ii)/(iii); edges below
    // the current level count as eliminated per Algorithm 3 line 6; the
    // candidate anchor and prior anchors always count.)
    def countable(c: Int, z: Int, zStatus: Byte): Boolean = {
      if (isCand(z) || isAnchor(z)) true
      else if (truss(z) < level) false
      else if (zStatus == ELIMINATED) false
      else if (zStatus == SURVIVED) true
      else truss(z) > level || layer(c) <= layer(z) // unchecked: need c < z
    }

    def effectiveTriangles(e: Int): Int = {
      var s = 0
      g.foreachTriangle(e) { (e1, e2) =>
        if (countable(e, e1, status(e1)) && countable(e, e2, status(e2))) s += 1
      }
      s
    }

    // Retract: eliminate `e` (status `prev` until now) and withdraw its
    // contribution from survived edges whose s⁺ counted a triangle with it.
    // Iterative (explicit stack) to survive deep cascades. An edge whose s⁺
    // drops below t-1 is stacked but stays SURVIVED until it is popped, so
    // "ELIMINATED" always means "already withdrawn": a triangle is withdrawn
    // from a survivor once, by the first of its other two edges popped.
    val retractStack = new java.util.ArrayDeque[Long]()
    def retract(e0: Int, prev0: Byte): Unit = {
      retractStack.push((e0.toLong << 2) | prev0)
      while (!retractStack.isEmpty) {
        val packed = retractStack.pop()
        val e = (packed >>> 2).toInt
        val prev = (packed & 3L).toByte
        status(e) = ELIMINATED
        g.foreachTriangle(e) { (p, q) =>
          var s = 0
          while (s < 2) {
            val sv = if (s == 0) p else q
            val third = if (s == 0) q else p
            // only survived current-level candidates track an s⁺ count
            if (!isCand(sv) && !isAnchor(sv) && truss(sv) == level && status(sv) == SURVIVED) {
              val wasCounted = countable(sv, e, prev) && countable(sv, third, status(third))
              if (wasCounted) {
                sPlus(sv) -= 1
                if (sPlus(sv) == truss(sv) - 2) retractStack.push((sv.toLong << 2) | SURVIVED)
              }
            }
            s += 1
          }
        }
      }
    }

    // min-heap keyed by (layer, edgeId) packed into one Long
    val heap = new java.util.PriorityQueue[java.lang.Long]()
    def push(e: Int): Unit = {
      touched += e
      inHeap(e) = true
      heap.add((layer(e).toLong << 32) | e.toLong)
    }
    seeds.foreach(push)

    // Every popped edge is still UNCHECKED: the seeds are distinct, a route
    // extension is pushed only while UNCHECKED and out of the heap, so no
    // edge is pushed twice, and a retract changes only the popped edge and
    // SURVIVED edges, never a queued one.
    var examined = 0
    while (!heap.isEmpty) {
      val e = (heap.poll() & 0xffffffffL).toInt
      inHeap(e) = false
      examined += 1
      val sp = effectiveTriangles(e)
      sPlus(e) = sp
      if (sp >= truss(e) - 1) {
        status(e) = SURVIVED
        // extend the route: same-level unchecked neighbor-edges deleted
        // no earlier than e (Algorithm 3 lines 12-14)
        g.foreachTriangle(e) { (e1, e2) =>
          var s = 0
          while (s < 2) {
            val ne = if (s == 0) e1 else e2
            if (!isCand(ne) && !isAnchor(ne) && truss(ne) == level &&
                status(ne) == UNCHECKED && layer(e) <= layer(ne) && !inHeap(ne))
              push(ne)
            s += 1
          }
        }
      } else retract(e, UNCHECKED)
    }

    // collect this level's survivors as followers, then reset workspace
    var idx = 0
    while (idx < touched.length) {
      val e = touched(idx)
      if (status(e) == SURVIVED) {
        followers += e
        if (nodeOf != null) perNode.updateWith(nodeOf(e)) {
          case Some(c) => Some(c + 1)
          case None    => Some(1)
        }
      }
      status(e) = UNCHECKED
      inHeap(e) = false
      sPlus(e) = 0
      idx += 1
    }
    touched.clear()
    examined
  }
}
