package repro.core

import repro.graph.CompactGraph
import repro.truss.LocalTruss.AnchorTruss
import scala.collection.mutable

/** The truss component tree (paper's Algorithm 4 / Table II).
  *
  * Every non-anchored edge belongs to exactly one tree node; all edges of a
  * node share a trussness value `K`, and the subgraph induced by the edges
  * in the subtree rooted at a node is a `K`-truss component (Definition 9).
  * A node's id is the smallest edge id among its own edges, which makes ids
  * deterministic and stable: a node whose edge set is unchanged across a
  * rebuild keeps its id, which is what the GAS reuse bookkeeping keys on.
  *
  * Anchored edges (trussness `LocalTruss.AnchorTruss`) participate in triangle
  * connectivity at *every* level — an anchor bridging two components merges
  * them, exactly as it does for follower propagation — but belong to no
  * node (`nodeOf = -1`).
  *
  * Each top-level node's subtree is one triangle-connected component of the
  * whole edge set (`CompactGraph.componentEdges`), or one edge in no triangle:
  * at the lowest trussness in a component every edge is in, so the whole
  * component is one class. Components ignore trussness, so anchoring never
  * changes them; [[TrussTree.rebuild]] reruns the construction pass over the
  * components of the edges it is given and carries every other node over
  * verbatim.
  */
final class TrussTree(
    val nodes: Map[Int, TrussTree.Node],
    /** edge id -> tree node id (-1 for anchors) */
    val nodeOf: Array[Int],
) {

  /** All edge ids in the subtree rooted at node `id`. The construction
    * does not use it; the benchmark's replay and the tests do, to measure
    * and check trees.
    */
  def subtreeEdges(id: Int): Array[Int] = {
    val buf = mutable.ArrayBuffer.empty[Int]
    val stack = mutable.Stack(id)
    while (stack.nonEmpty) {
      val n = nodes(stack.pop())
      buf ++= n.edges
      n.children.foreach(stack.push)
    }
    buf.toArray
  }

  /** Top-level root id owning edge `e` (-1 for anchors), by walking parent
    * links. The construction does not use it; the benchmark's replay does,
    * to count the edges under the roots a rebuild redoes.
    */
  def rootOf(e: Int): Int = {
    var id = nodeOf(e)
    if (id == -1) return -1
    while (nodes(id).parent != -1) id = nodes(id).parent
    id
  }
}

object TrussTree {

  /** A tree node: `id` = smallest member edge id (paper's TN.I), `k` = the
    * shared trussness (TN.K), `edges` = TN.E, `parent` = parent node id or
    * -1 (TN.P), `children` = child node ids (TN.C).
    */
  final case class Node(id: Int, k: Int, edges: Array[Int],
                        parent: Int, children: Array[Int])

  /** Build the full tree for graph `g` under trussness `truss` (paper's
    * Algorithm 4, virtual empty root). Anchors are edges with
    * `truss(e) == LocalTruss.AnchorTruss`.
    */
  def build(g: CompactGraph, truss: Array[Int]): TrussTree = {
    val nodeOf = Array.fill(g.m)(-1)
    val nodes = new Pass(g, truss, nodeOf).run(Array.range(0, g.m))
    new TrussTree(nodes, nodeOf)
  }

  /** Rerun the construction pass over the triangle-connected component of
    * every `dirty` edge (an edge in no triangle on its own) and carry every
    * other node (and its id) over from `prev` unchanged. A component's nodes
    * are the nodes whose ids are its edges, since an id is a member edge.
    * `dirty` must hold every edge whose trussness differs from `prev`'s;
    * then the result equals `build(g, truss)` (asserted by property tests).
    */
  def rebuild(g: CompactGraph, truss: Array[Int], prev: TrussTree,
              dirty: Iterable[Int]): TrussTree = {
    val redo = g.componentEdges(dirty)
    val nodeOf = prev.nodeOf.clone()
    redo.foreach(nodeOf(_) = -1)
    val rebuilt = new Pass(g, truss, nodeOf).run(redo)
    new TrussTree(prev.nodes.removedAll(redo.filter(e => prev.nodeOf(e) == e)) ++ rebuilt, nodeOf)
  }

  /** The construction pass shared by build and rebuild: Algorithm 4 as one
    * union-find sweep over whole triangle-connected components, anchors
    * included.
    *
    * The anchors are in from the start, joined through anchor-only
    * triangles, because three anchors can be the only link between two
    * components. The other edges join level by level in descending
    * trussness, each unioned with the two co-edges of every triangle whose
    * other edges are already in, so each triangle is joined once. After
    * level k the classes are the triangle-connected components of the edges
    * of trussness >= k and the anchors, and each class that gained level-k
    * edges becomes one node: id = its smallest level-k edge, children = the
    * class's previous top nodes (the components of the levels above that it
    * absorbed). Fills `nodeOf` for the given edges and returns the created
    * nodes.
    */
  private final class Pass(g: CompactGraph, truss: Array[Int], nodeOf: Array[Int]) {
    /** union-find parent per edge; -1 while the edge is not in */
    private val uf = Array.fill(g.m)(-1)
    /** top nodes of each class, as a linked list: first and last node id
      * per root, next node id per node (-1 ends the list)
      */
    private val topFirst = Array.fill(g.m)(-1)
    private val topLast = new Array[Int](g.m)
    private val topNext = new Array[Int](g.m)
    private val made = mutable.HashMap.empty[Int, Node]

    private def find(e: Int): Int = {
      var r = e
      while (uf(r) != r) r = uf(r)
      var c = e
      while (uf(c) != r) { val nxt = uf(c); uf(c) = r; c = nxt }
      r
    }

    private def union(a: Int, b: Int): Unit = {
      val ra = find(a); val rb = find(b)
      if (ra != rb) {
        val r = math.min(ra, rb); val c = math.max(ra, rb)
        uf(c) = r
        if (topFirst(c) != -1) {
          if (topFirst(r) == -1) topFirst(r) = topFirst(c) else topNext(topLast(r)) = topFirst(c)
          topLast(r) = topLast(c)
        }
      }
    }

    private def add(e: Int): Unit = {
      uf(e) = e
      g.foreachTriangle(e) { (a, b) =>
        if (uf(a) != -1 && uf(b) != -1) { union(e, a); union(e, b) }
      }
    }

    /** Turn each class holding some of `level` (ascending edge ids, all of
      * trussness k) into a node over its previous tops.
      */
    private def close(k: Int, level: Array[Int]): Unit = {
      val groups = mutable.HashMap.empty[Int, mutable.ArrayBuilder.ofInt]
      level.foreach(e => groups.getOrElseUpdate(find(e), new mutable.ArrayBuilder.ofInt) += e)
      groups.foreach { case (r, members) =>
        val edges = members.result()
        val id = edges(0)
        edges.foreach(nodeOf(_) = id)
        val children = mutable.ArrayBuilder.make[Int]
        var c = topFirst(r)
        while (c != -1) {
          made(c) = made(c).copy(parent = id)
          children += c
          c = topNext(c)
        }
        made(id) = Node(id, k, edges, -1, children.result().sorted)
        topFirst(r) = id; topLast(r) = id; topNext(id) = -1
      }
    }

    /** Build the nodes of `edges`: whole components, distinct edge ids. */
    def run(edges: Array[Int]): Map[Int, Node] = {
      val anchors = edges.filter(truss(_) == AnchorTruss)
      anchors.foreach(a => uf(a) = a)
      anchors.foreach { a =>
        g.foreachTriangle(a) { (p, q) =>
          if (truss(p) == AnchorTruss && truss(q) == AnchorTruss) { union(a, p); union(a, q) }
        }
      }
      val members = edges.filter(truss(_) != AnchorTruss).sorted
      var kMax = 0
      members.foreach(e => kMax = math.max(kMax, truss(e)))
      val byK = Array.fill(kMax + 1)(mutable.ArrayBuilder.make[Int])
      members.foreach(e => byK(truss(e)) += e)
      for (k <- kMax to 0 by -1) {
        val level = byK(k).result()
        if (level.nonEmpty) {
          level.foreach(add)
          close(k, level)
        }
      }
      made.toMap
    }
  }

  /** Subtree-adjacency node ids (paper's `sla(e)`): the tree nodes of all
    * neighbor-edges `e'` of `e` with `t(e') >= t(e)`. Anchored neighbor
    * edges have no node and are skipped (their support effect is not a
    * reuse unit). Returns sorted distinct ids; -1 entries never appear.
    */
  def sla(g: CompactGraph, truss: Array[Int], nodeOf: Array[Int], e: Int): Array[Int] = {
    val te = truss(e)
    val out = mutable.SortedSet.empty[Int]
    g.foreachTriangle(e) { (a, b) =>
      if (truss(a) >= te && truss(a) != AnchorTruss) out += nodeOf(a)
      if (truss(b) >= te && truss(b) != AnchorTruss) out += nodeOf(b)
    }
    out.toArray
  }
}
