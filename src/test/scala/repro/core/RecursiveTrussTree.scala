package repro.core

import repro.graph.CompactGraph
import repro.truss.LocalTruss.AnchorTruss
import scala.collection.mutable

/** Reference implementation of [[TrussTree.build]] for the property tests:
  * Algorithm 4 as written, peeling recursively. At every level it splits
  * the current edges into triangle-connected components (all anchors take
  * part at every level), makes each component's lowest-trussness edges one
  * node and recurses into the rest.
  */
object RecursiveTrussTree {

  def build(g: CompactGraph, truss: Array[Int]): TrussTree = {
    val top = (0 until g.m).filter(truss(_) != AnchorTruss).toArray
    val nodeOf = Array.fill(g.m)(-1)
    val up = Array.fill(g.m)(-1)
    new Builder(g, truss).buildInto(top, nodeOf, up)
    new TrussTree(nodeOf, up)
  }

  private final class Builder(g: CompactGraph, truss: Array[Int]) {
    private val inCur = new Array[Boolean](g.m)
    private val uf = new Array[Int](g.m)
    private val anchorIds = (0 until g.m).filter(truss(_) == AnchorTruss).toArray

    private def find(e: Int): Int = {
      var r = e
      while (uf(r) != r) r = uf(r)
      var c = e
      while (uf(c) != r) { val nxt = uf(c); uf(c) = r; c = nxt }
      r
    }
    private def union(a: Int, b: Int): Unit = {
      val ra = find(a); val rb = find(b)
      if (ra != rb) uf(if (ra < rb) rb else ra) = if (ra < rb) ra else rb
    }

    /** Partition `subset ∪ anchors` into triangle-connected groups; return
      * the groups of non-anchor edges.
      */
    private def components(subset: Array[Int]): Iterable[Array[Int]] = {
      val all = subset ++ anchorIds
      all.foreach { e => inCur(e) = true; uf(e) = e }
      all.foreach { e =>
        g.foreachTriangle(e) { (a, b) =>
          if (inCur(a) && inCur(b)) { union(e, a); union(e, b) }
        }
      }
      val groups = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Int]]
      subset.foreach(e => groups.getOrElseUpdate(find(e), mutable.ArrayBuffer.empty) += e)
      all.foreach(e => inCur(e) = false)
      groups.values.map(_.toArray)
    }

    /** Peel `subset` into root nodes and their subtrees; fills `nodeOf`
      * and `up` (a node's parent id is one of the parent's edges).
      */
    def buildInto(subset: Array[Int], nodeOf: Array[Int], up: Array[Int]): Unit = {
      def go(sub: Array[Int], par: Int): Unit = {
        for (comp <- components(sub)) {
          var kMin = Int.MaxValue
          comp.foreach(e => if (truss(e) < kMin) kMin = truss(e))
          val (hull, rest) = comp.partition(truss(_) == kMin)
          val id = hull.min
          hull.foreach(nodeOf(_) = id)
          up(id) = par
          if (rest.nonEmpty) go(rest, id)
        }
      }
      if (subset.nonEmpty) go(subset, -1)
    }
  }
}
