package repro.core

import repro.graph.CompactGraph
import repro.truss.LocalTruss
import scala.collection.mutable

/** AKT with a whole-graph decomposition per round: the test reference for
  * [[AKT]]. Each round collects the candidate vertices into a sorted set from
  * a scan of all m edges, drops the chosen ones, scores the rest in
  * ascending order and, after a pick, decomposes the whole graph again under
  * the grown anchor mask.
  */
object ReferenceAKT {

  def run(g: CompactGraph, k: Int, b: Int): AKT.KResult = {
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
          (g.adjOff(v) until g.adjOff(v + 1)).map(g.adjE)
            .filter(e => !anchors(e) && dec.truss(e) >= k - 1).toArray
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
    AKT.KResult(k, chosen.toSeq, gain, (0 until g.m).filter(anchors(_)).toSeq)
  }
}
