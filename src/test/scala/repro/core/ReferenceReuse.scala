package repro.core

import repro.graph.CompactGraph
import repro.truss.{LocalTruss, ReferenceTruss}
import scala.collection.mutable

/** Reference implementation of [[FollowerReuse.refresh]] for the property
  * tests: decompose the whole graph with the reference peel, build the tree
  * from scratch (node ids are smallest edge ids, so they match a rebuilt
  * tree's), then find the changed edges and the new sla sets by scanning
  * every edge. The component-local refresh must return the same state,
  * stale nodes and invalidated edges.
  */
object ReferenceReuse {

  def refresh(g: CompactGraph, prev: FollowerReuse.RoundState, x: Int,
              anchors: Array[Boolean]): FollowerReuse.Refresh = {
    val dec = ReferenceTruss.decompose(g, anchors)
    val tree = TrussTree.build(g, dec.truss)

    val changed = mutable.HashSet.empty[Int]
    for (e <- 0 until g.m if dec.truss(e) != prev.truss(e) || dec.layer(e) != prev.layer(e) ||
                             tree.nodeOf(e) != prev.tree.nodeOf(e)) changed += e
    changed += x

    val stale = mutable.HashSet.empty[Int]
    def addNode(id: Int): Unit = if (id != -1) stale += id
    changed.foreach { c =>
      addNode(prev.tree.nodeOf(c))
      addNode(tree.nodeOf(c))
    }
    prev.sla(x).foreach(addNode)

    val slaDirty = mutable.HashSet.empty[Int]
    changed.foreach { c =>
      slaDirty += c
      g.foreachTriangle(c) { (a, b) => slaDirty += a; slaDirty += b }
    }
    val sla = Array.tabulate(g.m) { e =>
      if (dec.truss(e) == LocalTruss.AnchorTruss) Array.empty[Int]
      else if (slaDirty.contains(e)) TrussTree.sla(g, dec.truss, tree.nodeOf, e)
      else prev.sla(e)
    }

    val invalidatedEdges = changed.filter(c => !anchors(c)).toSet
    FollowerReuse.Refresh(FollowerReuse.RoundState(dec.truss, dec.layer, tree, sla), stale.toSet,
                          invalidatedEdges)
  }
}
