package repro.core

import repro.graph.CompactGraph
import repro.truss.LocalTruss.AnchorTruss
import scala.collection.mutable

/** The truss component tree (paper's Algorithm 4 / Table II), as two int
  * arrays.
  *
  * Every non-anchored edge belongs to exactly one tree node; all edges of a
  * node share a trussness value `K`, and the subgraph induced by the edges
  * in the subtree rooted at a node is a `K`-truss component (Definition 9).
  * A node's id is the smallest edge id among its own edges, which makes ids
  * deterministic and stable: a node whose edge set is unchanged across a
  * rebuild keeps its id, which is what the GAS reuse bookkeeping keys on.
  *
  * The tree is `nodeOf` (edge -> node id, the paper's TN.I) and `up` (node
  * id -> an edge of its parent node, -1 for a top node). The rest of a
  * node follows from them: its K (TN.K) is `truss(id)`, its edges (TN.E)
  * are the edges `e` with `nodeOf(e) == id`, its parent (TN.P) is
  * [[parent]] and its children (TN.C) are the nodes whose parent it is.
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
  * components of the edges it is given and carries both arrays over
  * verbatim elsewhere.
  */
final class TrussTree private[core] (
    /** edge id -> tree node id (-1 for anchors) */
    val nodeOf: Array[Int],
    /** node id -> an edge of its parent node (-1 for a top node) */
    private val up: Array[Int],
) {

  /** Parent node id of node `id`, or -1 for a top node. */
  def parent(id: Int): Int = if (up(id) == -1) -1 else nodeOf(up(id))

  /** All edge ids in the subtree rooted at node `id`: the edges whose
    * parent chain reaches `id`, in O(m · depth). The construction does not
    * use it; the benchmark's replay and the tests do, to measure and check
    * trees.
    */
  def subtreeEdges(id: Int): Array[Int] = {
    val out = mutable.ArrayBuilder.make[Int]
    var e = 0
    while (e < nodeOf.length) {
      var n = nodeOf(e)
      while (n != -1 && n != id) n = parent(n)
      if (n != -1) out += e
      e += 1
    }
    out.result()
  }

  /** Top-level root id owning edge `e` (-1 for anchors), by walking parent
    * links. The construction does not use it; the benchmark's replay does,
    * to count the edges under the roots a rebuild redoes.
    */
  def rootOf(e: Int): Int = {
    var id = nodeOf(e)
    if (id == -1) return -1
    while (parent(id) != -1) id = parent(id)
    id
  }
}

object TrussTree {

  /** Build the full tree for graph `g` under trussness `truss` (paper's
    * Algorithm 4, virtual empty root). Anchors are edges with
    * `truss(e) == LocalTruss.AnchorTruss`.
    */
  def build(g: CompactGraph, truss: Array[Int]): TrussTree = {
    val nodeOf = Array.fill(g.m)(-1)
    val up = Array.fill(g.m)(-1)
    new Pass(g, truss, nodeOf, up).run(Array.range(0, g.m))
    new TrussTree(nodeOf, up)
  }

  /** Rerun the construction pass over the triangle-connected component of
    * every `dirty` edge (an edge in no triangle on its own) and carry both
    * arrays over from `prev` everywhere else. A node's parent lies in its
    * own component, so no link crosses the boundary of what is redone.
    * `dirty` must hold every edge whose trussness differs from `prev`'s;
    * then the result equals `build(g, truss)` (asserted by property tests).
    */
  def rebuild(g: CompactGraph, truss: Array[Int], prev: TrussTree,
              dirty: Iterable[Int]): TrussTree = {
    val redo = g.componentEdges(dirty)
    val nodeOf = prev.nodeOf.clone()
    val up = prev.up.clone()
    redo.foreach { e => nodeOf(e) = -1; up(e) = -1 }
    new Pass(g, truss, nodeOf, up).run(redo)
    new TrussTree(nodeOf, up)
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
    * edges becomes one node with id = its smallest level-k edge. Each class
    * keeps its top node (-1 while it has none); a union while level-k edge
    * `cur` is added hangs both sides' tops under `cur`, whose node is
    * their parent. Fills `nodeOf` and `up` for the given edges.
    */
  private final class Pass(g: CompactGraph, truss: Array[Int], nodeOf: Array[Int], up: Array[Int]) {
    /** union-find parent per edge; -1 while the edge is not in */
    private val uf = Array.fill(g.m)(-1)
    /** top node id per class root; -1 while the class has none */
    private val top = Array.fill(g.m)(-1)
    /** the edge being added; the anchor pre-unions run before any node exists */
    private var cur = -1

    private def find(e: Int): Int = {
      var r = e
      while (uf(r) != r) r = uf(r)
      var c = e
      while (uf(c) != r) { val nxt = uf(c); uf(c) = r; c = nxt }
      r
    }

    private def hang(r: Int): Unit =
      if (top(r) != -1) { up(top(r)) = cur; top(r) = -1 }

    private def union(a: Int, b: Int): Unit = {
      val ra = find(a); val rb = find(b)
      if (ra != rb) {
        hang(ra); hang(rb)
        uf(math.max(ra, rb)) = math.min(ra, rb)
      }
    }

    private def add(e: Int): Unit = {
      uf(e) = e
      cur = e
      g.foreachTriangle(e) { (a, b) =>
        if (uf(a) != -1 && uf(b) != -1) { union(e, a); union(e, b) }
      }
    }

    /** Build the nodes of `edges`: whole components, distinct edge ids. */
    def run(edges: Array[Int]): Unit = {
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
        level.foreach(add)
        // ascending, so a class's first edge is its smallest: the node id
        level.foreach { e =>
          val r = find(e)
          if (top(r) == -1) top(r) = e
          nodeOf(e) = top(r)
        }
      }
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
