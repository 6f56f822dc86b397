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
  def run(g: CompactGraph, k: Int, b: Int): KResult = {
    require(b >= 0, s"b must be non-negative, got $b")
    val baseDec = LocalTruss.decompose(g)
    val finder = new FollowerFinder(g)
    val anchors = new Array[Boolean](g.m)
    val chosen = mutable.ArrayBuffer.empty[Int]
    val chosenSet = mutable.HashSet.empty[Int]
    var dec = baseDec
    var rounds = 0
    while (rounds < b) {
      rounds += 1
      // endpoints of current (k-1)-hull edges, not yet anchored
      val cands = mutable.SortedSet.empty[Int]
      var e = 0
      while (e < g.m) {
        if (dec.truss(e) == k - 1) { cands += g.edgeU(e); cands += g.edgeV(e) }
        e += 1
      }
      chosenSet.foreach(cands -= _)
      if (cands.isEmpty) rounds = b // nothing left to gain at this k
      else {
        // only incident edges inside the (k-1)-truss skeleton are anchored
        def anchorable(v: Int): Array[Int] =
          g.incidentEdges(v).filter(e => !anchors(e) && dec.truss(e) >= k - 1).toArray
        var bestV = -1
        var bestScore = -1
        cands.foreach { v =>
          val incident = anchorable(v)
          val score =
            if (incident.isEmpty) 0
            else finder.findMulti(dec.truss, dec.layer, incident, onlyLevel = k - 1).count
          if (score > bestScore || (score == bestScore && (bestV == -1 || v < bestV))) {
            bestScore = score; bestV = v
          }
        }
        chosen += bestV
        chosenSet += bestV
        val newlyAnchored = anchorable(bestV)
        if (newlyAnchored.nonEmpty) {
          newlyAnchored.foreach(anchors(_) = true)
          dec = LocalTruss.decompose(g, anchors)
        }
      }
    }
    // credit only level-(k-1) edges that entered the k-truss (+1 each)
    val gain = {
      var s = 0L
      var e = 0
      while (e < g.m) {
        if (!anchors(e) && baseDec.truss(e) == k - 1 && dec.truss(e) >= k) s += 1
        e += 1
      }
      s
    }
    KResult(k, chosen.toSeq, gain, (0 until g.m).filter(anchors(_)).toSeq)
  }

  /** Run AKT for every k in [3, kMax]; used for Table V's avg/max over k. */
  def sweep(g: CompactGraph, b: Int): Seq[KResult] = {
    val kMax = LocalTruss.decompose(g).kMax
    (3 to kMax).map(k => run(g, k, b))
  }
}
