package repro.core

import repro.graph.CompactGraph
import repro.truss.LocalTruss
import scala.collection.mutable

/** The AKT vertex-anchoring baseline of Zhang et al. [2] ("Efficiently
  * reinforcing social networks over user engagement and tie strength",
  * ICDE'18), re-implemented from this paper's description for the Exp-9
  * comparison (Table V).
  *
  * Semantics (per the paper's Example 1 equivalence): anchoring a vertex v
  * anchors its incident edges so they keep providing triangle support — but
  * only the incident edges already inside the (k-1)-truss skeleton, since
  * [2] computes the anchored k-truss on that skeleton and edges peeled
  * below it never participate. For a target k:
  *
  *  - candidate vertices are the endpoints of edges with trussness k-1
  *    (only those can expand the k-truss, per [2]);
  *  - b vertices are chosen greedily, scoring a candidate by its number of
  *    level-(k-1) followers (the AKT objective: edges pulled into the
  *    k-truss) via the multi-anchor follower search;
  *  - the reported metric is the trussness gain AKT is credited with in the
  *    paper's Exp-4/Exp-9: the number of non-anchored edges of trussness
  *    k-1 pulled into the k-truss ("AKT ... affecting only edges with
  *    trussness equal to k-1"), measured by exact anchored decomposition.
  */
object AKT {

  final case class KResult(k: Int, vertices: Seq[Int], globalGain: Long,
                           anchoredEdges: Seq[Int])

  /** Run AKT for one k value with budget b. */
  def run(g: CompactGraph, k: Int, b: Int): KResult =
    run(g, LocalTruss.decompose(g), new FollowerFinder(g), k, b)

  /** Run AKT for every k in [3, kMax]; used for Table V's avg/max over k.
    * Every k starts from the one unanchored decomposition.
    */
  def sweep(g: CompactGraph, b: Int): Seq[KResult] = {
    val base = LocalTruss.decompose(g)
    val finder = new FollowerFinder(g)
    (3 to base.kMax).map(k => run(g, base, finder, k, b))
  }

  /** AKT at k from `base`, the unanchored decomposition of `g`. Each round
    * scans the vertices in ascending order, so ties go to the smallest
    * vertex; a pick anchors its skeleton edges and re-peels only their
    * triangle-connected components, spliced into the round's arrays.
    */
  private def run(g: CompactGraph, base: LocalTruss.Result, finder: FollowerFinder,
                  k: Int, b: Int): KResult = {
    require(b >= 0, s"b must be non-negative, got $b")
    val truss = base.truss.clone()
    val layer = base.layer.clone()
    val anchors = new Array[Boolean](g.m)
    val chosen = new Array[Boolean](g.n)
    val picks = mutable.ArrayBuffer.empty[Int]
    // a candidate has an incident edge of trussness k-1
    def isCandidate(v: Int): Boolean =
      !chosen(v) && (g.adjOff(v) until g.adjOff(v + 1)).exists(i => truss(g.adjE(i)) == k - 1)
    // only incident edges inside the (k-1)-truss skeleton are anchored
    def anchorable(v: Int): Array[Int] =
      (g.adjOff(v) until g.adjOff(v + 1)).iterator.map(g.adjE)
        .filter(e => !anchors(e) && truss(e) >= k - 1).toArray
    var done = false
    while (!done && picks.size < b) {
      var bestV = -1
      var bestScore = -1
      var v = 0
      while (v < g.n) {
        if (isCandidate(v)) {
          val score = finder.findMulti(truss, layer, anchorable(v), onlyLevel = k - 1).count
          if (score > bestScore) { bestScore = score; bestV = v }
        }
        v += 1
      }
      if (bestV < 0) done = true // nothing left to gain at this k
      else {
        chosen(bestV) = true
        picks += bestV
        val fresh = anchorable(bestV)
        fresh.foreach(anchors(_) = true)
        LocalTruss.decomposeAround(g, anchors, fresh).writeTo(truss, layer)
      }
    }
    // credit only level-(k-1) edges that entered the k-truss (+1 each)
    val gain = (0 until g.m).count(e => !anchors(e) && base.truss(e) == k - 1 && truss(e) >= k)
    KResult(k, picks.toSeq, gain.toLong, (0 until g.m).filter(anchors(_)))
  }
}
