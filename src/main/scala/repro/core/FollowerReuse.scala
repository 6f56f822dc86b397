package repro.core

import repro.graph.CompactGraph
import repro.truss.LocalTruss
import scala.collection.mutable

/** Round-to-round reuse bookkeeping (paper's Algorithm 5).
  *
  * After anchoring `x`, decides which truss-tree nodes' follower results
  * `F[e][id]` stay valid for the next greedy round (`id ∈ rn(e)` in the
  * paper) and which must be recomputed.
  *
  * Our invalidation set `ES` is a *conservative superset* of the paper's
  * (which takes only `T[x].I`, the sla-nodes of `x` that contained
  * followers, and the followers' new nodes): we additionally invalidate
  *
  *  - every sla-node of `x` (anchoring `x` can change deletion *layers* —
  *    and, through `x`'s now-infinite trussness, effective-triangle
  *    eligibility and triangle connectivity — in components of `x`'s
  *    neighbor-edges even when no follower lives there), and
  *  - every node (old or new id) touching an edge whose trussness, layer or
  *    node assignment changed, obtained by diffing the decompositions.
  *
  * This keeps GAS *exactly* equivalent to BASE+ (asserted by property
  * tests) while still reusing the overwhelming share of results.
  */
object FollowerReuse {

  /** State produced for a greedy round: decomposition, tree and sla sets. */
  final case class RoundState(
      truss: Array[Int],
      layer: Array[Int],
      tree: TrussTree,
      /** sla(e) per edge (empty for anchors) */
      sla: Array[Array[Int]],
  )

  /** Outcome of a refresh: the new state, the stale node ids, and the edges
    * whose own (t, l) changed (their entire cache must be dropped).
    */
  final case class Refresh(state: RoundState, staleNodes: Set[Int],
                           invalidatedEdges: Set[Int])

  /** Build the initial round state (round 1: everything must be computed). */
  def initial(g: CompactGraph, anchors: Array[Boolean]): RoundState = {
    val dec = LocalTruss.decompose(g, anchors)
    val tree = TrussTree.build(g, dec.truss)
    val sla = Array.tabulate(g.m)(TrussTree.sla(g, dec.truss, tree.nodeOf, _))
    RoundState(dec.truss, dec.layer, tree, sla)
  }

  /** Refresh after anchoring `x` (anchors mask already includes `x`).
    *
    * Anchoring `x` moves supports only through triangles, so trussness and
    * layers can change only inside x's triangle-connected component (x
    * alone, if it lies in no triangle). That component alone is re-peeled
    * and spliced into copies of the previous arrays; the tree rebuild, the
    * diffs and the sla updates run over it only.
    * Equal to a full re-decomposition with whole-graph diffs (asserted by
    * property tests against that reference).
    */
  def refresh(g: CompactGraph, prev: RoundState, x: Int,
              anchors: Array[Boolean]): Refresh = {
    val dec = LocalTruss.decomposeAround(g, anchors, Seq(x))
    val truss = prev.truss.clone()
    val layer = prev.layer.clone()
    dec.writeTo(truss, layer)
    // every edge whose trussness changed lies in x's component, so
    // rebuilding that component is enough
    val tree = TrussTree.rebuild(g, truss, prev.tree, Seq(x))

    // edges whose decomposition outcome or node assignment changed
    val changed = dec.ids.filter { e =>
      truss(e) != prev.truss(e) || layer(e) != prev.layer(e) || tree.nodeOf(e) != prev.tree.nodeOf(e)
    }

    val stale = mutable.HashSet.empty[Int]
    def addNode(id: Int): Unit = if (id != -1) stale += id
    changed.foreach { c =>
      addNode(prev.tree.nodeOf(c))
      addNode(tree.nodeOf(c))
    }
    prev.sla(x).foreach(addNode) // conservative: all sla-nodes of x

    // sla only changes for edges with a changed triangle-neighborhood (or a
    // changed own trussness); recompute exactly those
    val slaDirty = mutable.HashSet.empty[Int]
    changed.foreach { c =>
      slaDirty += c
      g.foreachTriangle(c) { (a, b) => slaDirty += a; slaDirty += b }
    }
    val sla = prev.sla.clone()
    slaDirty.foreach(e => sla(e) = TrussTree.sla(g, truss, tree.nodeOf, e))

    val invalidatedEdges = changed.filter(c => !anchors(c)).toSet
    Refresh(RoundState(truss, layer, tree, sla), stale.toSet, invalidatedEdges)
  }
}
