package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.truss.LocalTruss
import repro.graph.{CompactGraph, GraphGen}
import scala.util.Random

/** Structural invariants of the truss component tree (Algorithm 4):
  * partition of edges, uniform trussness per node, parent-child K ordering,
  * subtree = k-truss component, stable smallest-edge-id node ids, `rootOf`
  * and `subtreeEdges` against the triangle-connected components (nodes
  * read through [[TreeCompare.nodes]]); and equality (`nodeOf` and
  * parents) of the one-pass build with the recursive reference
  * [[RecursiveTrussTree]], and of chains of partial rebuilds (given the
  * changed edges, or the new anchor alone) with from-scratch builds.
  */
class TrussTreeSpec extends AnyFunSuite {

  private def buildFor(g: CompactGraph, anchors: Array[Boolean] = null) = {
    val dec = LocalTruss.decompose(g, anchors)
    (dec, TrussTree.build(g, dec.truss))
  }

  /** Node for node: same nodeOf and parents. */
  private def assertSameTree(got: TrussTree, want: TrussTree, clue: String): Unit =
    TreeCompare.firstDifference(got, want).foreach(d => fail(s"$clue: $d"))

  /** Anchor `xs` one at a time and keep two chains of rebuilt trees, each
    * rebuilt from its own previous tree: one given every edge whose
    * trussness or layer changed plus the new anchor, one given the new
    * anchor alone, as `FollowerReuse.refresh` calls it. Check both at every
    * step against a from-scratch build, and with `reference` the build
    * against the recursive reference.
    */
  private def assertRebuildChain(g: CompactGraph, xs: Seq[Int], clue: String,
                                 reference: Boolean = true): Unit = {
    val anchors = new Array[Boolean](g.m)
    var dec = LocalTruss.decompose(g)
    var byChanged = TrussTree.build(g, dec.truss)
    var byAnchor = byChanged
    if (reference) assertSameTree(byChanged, RecursiveTrussTree.build(g, dec.truss), s"$clue unanchored")
    xs.foreach { x =>
      anchors(x) = true
      val next = LocalTruss.decompose(g, anchors)
      val changed = (0 until g.m).filter(e => next.truss(e) != dec.truss(e) || next.layer(e) != dec.layer(e))
      byChanged = TrussTree.rebuild(g, next.truss, byChanged, changed :+ x)
      byAnchor = TrussTree.rebuild(g, next.truss, byAnchor, Seq(x))
      dec = next
      val built = TrussTree.build(g, dec.truss)
      assertSameTree(byChanged, built, s"$clue after $x: rebuild of the changed edges vs build")
      assertSameTree(byAnchor, built, s"$clue after $x: rebuild of the anchor alone vs build")
      if (reference)
        assertSameTree(built, RecursiveTrussTree.build(g, dec.truss), s"$clue after $x: build vs reference")
    }
  }

  /** For every edge `e`: `rootOf(e)` is -1 for an anchor, else the
    * ancestor of `nodeOf(e)` with no parent; its subtree is the non-anchor
    * edges of e's triangle-connected component; and every node's subtree is
    * its edges plus its children's subtrees.
    */
  private def assertRoots(g: CompactGraph, truss: Array[Int], tree: TrussTree, clue: String): Unit = {
    val nodes = TreeCompare.nodes(tree, truss)
    for (e <- 0 until g.m) {
      val root = tree.rootOf(e)
      if (truss(e) == LocalTruss.AnchorTruss) assert(root == -1, s"$clue e=$e")
      else {
        var id = tree.nodeOf(e)
        while (id != root && id != -1) id = nodes(id).parent
        assert(id == root && nodes(root).parent == -1, s"$clue e=$e: rootOf $root")
        val comp = g.componentEdges(Seq(e)).filter(truss(_) != LocalTruss.AnchorTruss)
        assert(tree.subtreeEdges(root).sorted.sameElements(comp.sorted), s"$clue e=$e: subtree of root $root")
      }
    }
    nodes.values.foreach { n =>
      val want = n.edges ++ n.children.flatMap(tree.subtreeEdges)
      assert(tree.subtreeEdges(n.id).sorted.sameElements(want.sorted), s"$clue node ${n.id}")
    }
  }

  test("every non-anchor edge is in exactly one node; anchors in none") {
    for (seed <- 1 to 15) {
      val g = TestGraphs.random(13, 45, seed * 3 + 1)
      val anchors = LocalTruss.anchorMask(g.m, Seq(seed % g.m))
      val (dec, tree) = buildFor(g, anchors)
      val seen = scala.collection.mutable.HashSet.empty[Int]
      TreeCompare.nodes(tree, dec.truss).values.foreach { n =>
        n.edges.foreach { e =>
          assert(!seen.contains(e)); seen += e
          assert(tree.nodeOf(e) == n.id)
        }
      }
      for (e <- 0 until g.m) {
        if (anchors(e)) assert(tree.nodeOf(e) == -1)
        else assert(seen.contains(e))
      }
      assert(dec.truss(seed % g.m) == LocalTruss.AnchorTruss)
    }
  }

  test("all edges of a node share its trussness K and the node id is the min edge id") {
    for (seed <- 1 to 15) {
      val g = TestGraphs.random(13, 45, seed * 5 + 2)
      val (dec, tree) = buildFor(g)
      TreeCompare.nodes(tree, dec.truss).values.foreach { n =>
        n.edges.foreach(e => assert(dec.truss(e) == n.k))
        assert(n.id == n.edges.min)
      }
    }
  }

  test("child nodes have strictly larger K than their parent") {
    for (seed <- 1 to 15) {
      val g = TestGraphs.random(13, 45, seed * 7 + 3)
      val (dec, tree) = buildFor(g)
      val nodes = TreeCompare.nodes(tree, dec.truss)
      nodes.values.foreach { n =>
        n.children.foreach { c =>
          assert(nodes(c).k > n.k)
          assert(nodes(c).parent == n.id)
        }
      }
    }
  }

  test("subtree edges all have trussness >= the root node's K") {
    for (seed <- 1 to 10) {
      val g = TestGraphs.random(13, 45, seed * 11 + 4)
      val (dec, tree) = buildFor(g)
      TreeCompare.nodes(tree, dec.truss).values.foreach { n =>
        tree.subtreeEdges(n.id).foreach(e => assert(dec.truss(e) >= n.k))
      }
    }
  }

  test("subtree is triangle-connected within itself (k-truss component)") {
    for (seed <- 1 to 10) {
      val g = TestGraphs.random(12, 40, seed * 13 + 5)
      val (dec, tree) = buildFor(g)
      for (id <- TreeCompare.nodes(tree, dec.truss).keys) {
        val edges = tree.subtreeEdges(id).toSet
        if (edges.size > 1) {
          // union-find restricted to the subtree must leave one group,
          // except edges with no triangle inside the subtree (singletons
          // can only be the node's own K=2-style members)
          val uf = scala.collection.mutable.HashMap.empty[Int, Int]
          def find(x: Int): Int = {
            val p = uf.getOrElse(x, x)
            if (p == x) x else { val r = find(p); uf(x) = r; r }
          }
          edges.foreach { e =>
            g.foreachTriangle(e) { (a, b) =>
              if (edges(a) && edges(b)) { uf(find(a)) = find(e); uf(find(b)) = find(e) }
            }
          }
          val roots = edges.map(find)
          // all triangle-participating edges agree on one root
          val triEdges = edges.filter { e =>
            var has = false
            g.foreachTriangle(e)((a, b) => if (edges(a) && edges(b)) has = true)
            has
          }
          assert(triEdges.map(find).size <= 1,
            s"seed=$seed node=$id split into ${roots.size} groups")
        }
      }
    }
  }

  test("rootOf is the top ancestor and its subtree the component, on random graphs with anchors and along rebuilds") {
    for (seed <- 1 to 15) {
      val g = TestGraphs.random(13, 45, seed * 37 + 11)
      val xs = new Random(seed).shuffle((0 until g.m).toList).take(5)
      val anchors = new Array[Boolean](g.m)
      var dec = LocalTruss.decompose(g)
      var tree = TrussTree.build(g, dec.truss)
      assertRoots(g, dec.truss, tree, s"seed=$seed unanchored")
      xs.foreach { x =>
        anchors(x) = true
        dec = LocalTruss.decompose(g, anchors)
        tree = TrussTree.rebuild(g, dec.truss, tree, Seq(x))
        assertRoots(g, dec.truss, tree, s"seed=$seed after $x")
        assertRoots(g, dec.truss, TrussTree.build(g, dec.truss), s"seed=$seed built after $x")
      }
    }
  }

  test("clique tree: single node holding every edge") {
    val g = TestGraphs.clique(6)
    val (dec, tree) = buildFor(g)
    val nodes = TreeCompare.nodes(tree, dec.truss)
    assert(nodes.size == 1)
    val n = nodes.values.head
    assert(n.k == 6 && n.edges.length == g.m && n.parent == -1)
  }

  test("clique + edge-sharing triangle: triangle node is parent of clique node") {
    // triangle {3,4,5} shares edge (3,4) with the K5, so the two are
    // triangle-connected at level 3: node K=3 holds {(3,5),(4,5)} and its
    // child K=5 holds the ten clique edges
    val clique = for (i <- 0 until 5; j <- (i + 1) until 5) yield (i, j)
    val g = CompactGraph.fromEdges(clique ++ Seq((3, 5), (4, 5)))
    val (dec, tree) = buildFor(g)
    val nodes = TreeCompare.nodes(tree, dec.truss)
    assert(nodes.size == 2)
    val Seq(lo, hi) = nodes.values.toSeq.sortBy(_.k)
    assert(lo.k == 3 && hi.k == 5)
    assert(hi.parent == lo.id)
    assert(lo.parent == -1)
    assert(lo.edges.length == 2 && hi.edges.length == 10)
  }

  test("clique + vertex-sharing triangle: two separate root components") {
    // the pendant triangle {4,5,6} shares only a vertex with the K5 — no
    // common triangle, so no triangle-connectivity: two root nodes
    val clique = for (i <- 0 until 5; j <- (i + 1) until 5) yield (i, j)
    val g = CompactGraph.fromEdges(clique ++ Seq((4, 5), (4, 6), (5, 6)))
    val (dec, tree) = buildFor(g)
    val nodes = TreeCompare.nodes(tree, dec.truss)
    assert(nodes.size == 2)
    assert(nodes.values.forall(_.parent == -1))
    assert(nodes.values.map(_.k).toSet == Set(3, 5))
  }

  test("partial rebuild after anchoring equals a from-scratch build") {
    // a chain of five anchors; each rebuild starts from the previous rebuilt tree
    for (seed <- 1 to 12) {
      val g = TestGraphs.random(13, 48, seed * 23 + 8)
      val xs = new Random(seed).shuffle((0 until g.m).toList).take(5)
      assertRebuildChain(g, xs, s"seed=$seed")
    }
  }

  test("one rebuild over two components and an edge in no triangle, anchoring and unanchoring them") {
    var checked = 0
    for (seed <- 1 to 40) {
      val g = TestGraphs.random(30, 70, seed * 31 + 2)
      // the best-supported edge of the two largest components, and the
      // first edge in no triangle
      val byComp = (0 until g.m).filter(g.componentOf(_) >= 0).groupBy(g.componentOf)
      val loose = (0 until g.m).find(g.componentOf(_) == -1)
      if (byComp.size >= 2 && loose.isDefined) {
        checked += 1
        val xs = byComp.values.toSeq.sortBy(c => (-c.size, c.min)).take(2)
          .map(_.minBy(e => (-g.support(e), e))) :+ loose.get
        val plain = LocalTruss.decompose(g).truss
        val anchored = LocalTruss.decompose(g, LocalTruss.anchorMask(g.m, xs)).truss
        for ((from, to, what) <- Seq((plain, anchored, "anchoring"), (anchored, plain, "unanchoring"))) {
          val tree = TrussTree.rebuild(g, to, TrussTree.build(g, from), xs)
          assertSameTree(tree, TrussTree.build(g, to), s"seed=$seed $what $xs: rebuild vs build")
          assertSameTree(tree, RecursiveTrussTree.build(g, to), s"seed=$seed $what $xs: vs reference")
        }
      }
    }
    assert(checked >= 10, s"only $checked graphs had two components and an edge in no triangle")
  }

  test("rebuilds equal builds on pokec, anchoring its top-support edges") {
    // pokec's components are small (none above 579 edges), so each rebuild
    // redoes a sliver of the tree
    val g = GraphGen.graph("pokec")
    val xs = (0 until g.m).sortBy(e => (-g.support(e), e)).take(20)
    assertRebuildChain(g, xs, "pokec", reference = false)
  }

  test("the one-pass build equals the recursive reference on random graphs with 0-7 anchors") {
    for (seed <- 1 to 300) {
      val rnd = new Random(seed)
      val g = TestGraphs.random(10 + rnd.nextInt(8), 30 + rnd.nextInt(30), seed * 29 + 9)
      val xs = rnd.shuffle((0 until g.m).toList).take(rnd.nextInt(8))
      val dec = LocalTruss.decompose(g, LocalTruss.anchorMask(g.m, xs))
      assertSameTree(TrussTree.build(g, dec.truss), RecursiveTrussTree.build(g, dec.truss),
                     s"seed=$seed anchors=$xs")
    }
  }

  test("the one-pass build equals the recursive reference on college with anchors") {
    val g = GraphGen.graph("college")
    for (seed <- 1 to 3) {
      val xs = new Random(seed).shuffle((0 until g.m).toList).take(seed * 2)
      val dec = LocalTruss.decompose(g, LocalTruss.anchorMask(g.m, xs))
      assertSameTree(TrussTree.build(g, dec.truss), RecursiveTrussTree.build(g, dec.truss),
                     s"anchors=$xs")
    }
  }

  test("builds and rebuilds equal the recursive reference on facebook, anchoring its top-support edges") {
    // one top component holds most of the edges, so every rebuild redoes it
    val g = GraphGen.graph("facebook")
    val xs = (0 until g.m).sortBy(e => (-g.support(e), e)).take(5)
    assertRebuildChain(g, xs, "facebook")
  }

  test("node ids are stable across rebuilds when nothing changes") {
    for (seed <- 1 to 8) {
      val g = TestGraphs.random(13, 45, seed * 17 + 6)
      val dec = LocalTruss.decompose(g)
      val t1 = TrussTree.build(g, dec.truss)
      val t2 = TrussTree.rebuild(g, dec.truss, t1, 0 until g.m by 3)
      assertSameTree(t2, t1, s"seed=$seed")
    }
  }

  test("sla contains the nodes of all >=-trussness neighbor edges") {
    // unanchored, and anchored: an anchor's sla is empty, and anchored
    // neighbor edges (no node) are skipped
    for (seed <- 1 to 10; anchored <- Seq(false, true)) {
      val g = TestGraphs.random(12, 40, seed * 19 + 7)
      val anchors = LocalTruss.anchorMask(g.m, if (anchored) Seq(seed % g.m, g.m / 2, g.m - 1) else Nil)
      val (dec, tree) = buildFor(g, anchors)
      for (e <- 0 until g.m) {
        val want = scala.collection.mutable.SortedSet.empty[Int]
        if (!anchors(e)) g.foreachTriangle(e) { (a, b) =>
          if (!anchors(a) && dec.truss(a) >= dec.truss(e)) want += tree.nodeOf(a)
          if (!anchors(b) && dec.truss(b) >= dec.truss(e)) want += tree.nodeOf(b)
        }
        assert(TrussTree.sla(g, dec.truss, tree.nodeOf, e).toSeq == want.toSeq, s"seed=$seed anchored=$anchored e=$e")
      }
    }
  }

  test("anchors merge components at every level") {
    // the triangles {0,1,2}, {1,2,3}, {2,3,4}, {3,4,5} form a chain through
    // edges (1,2), (2,3), (3,4): one 3-truss component of all 9 edges
    val g = CompactGraph.fromEdges(Seq(
      (0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3), (1, 3), (2, 4)))
    val (dec0, t0) = buildFor(g)
    assert(TreeCompare.nodes(t0, dec0.truss).values.map(n => (n.k, n.edges.toSet, n.parent)).toSet ==
           Set((3, (0 until g.m).toSet, -1)))
    // anchoring the middle edge (2,3) keeps one node: the anchor still joins
    // {1,2,3} and {2,3,4}
    val x = TestGraphs.edgeId(g, 2, 3)
    val (dec1, t1) = buildFor(g, LocalTruss.anchorMask(g.m, Seq(x)))
    assert(TreeCompare.nodes(t1, dec1.truss).values.map(n => (n.k, n.edges.toSet, n.parent)).toSet ==
           Set((3, (0 until g.m).toSet - x, -1)))
    assert(t1.nodeOf(x) == -1)
    assertSameTree(t0, RecursiveTrussTree.build(g, dec0.truss), "unanchored")
    assertSameTree(t1, RecursiveTrussTree.build(g, dec1.truss), "anchored")
  }

  test("two cliques joined only through a triangle of three anchors form one node") {
    // K4s on {0,1,2,3} and {4,5,6,7}; vertex 8 closes the triangles
    // {0,1,8} and {4,5,8}, and {1,4,8} links them. With (0,8), (1,8),
    // (4,8), (5,8) and (1,4) anchored, the only path from one clique to the
    // other runs through {1,4,8}, whose three edges are all anchors.
    def k4(vs: Int*) = for (i <- vs.indices; j <- (i + 1) until vs.length) yield (vs(i), vs(j))
    val connectors = Seq((0, 8), (1, 8), (4, 8), (5, 8), (1, 4))
    val g = CompactGraph.fromEdges(k4(0, 1, 2, 3) ++ k4(4, 5, 6, 7) ++ connectors)
    val cliqueEdges = (k4(0, 1, 2, 3) ++ k4(4, 5, 6, 7)).map { case (u, v) => TestGraphs.edgeId(g, u, v) }
    val connectorEdges = connectors.map { case (u, v) => TestGraphs.edgeId(g, u, v) }
    val left = cliqueEdges.take(6).toSet; val right = cliqueEdges.drop(6).toSet

    // unanchored: the connectors form a 3-level node over the two K4 nodes
    val (dec0, t0) = buildFor(g)
    val root = connectorEdges.min
    assert(TreeCompare.nodes(t0, dec0.truss).values.map(n => (n.id, n.k, n.edges.toSet, n.parent)).toSet == Set(
      (root, 3, connectorEdges.toSet, -1), (left.min, 4, left, root), (right.min, 4, right, root)))
    assertSameTree(t0, RecursiveTrussTree.build(g, dec0.truss), "unanchored")

    // anchored: one 4-level node holding both cliques
    val (dec1, t1) = buildFor(g, LocalTruss.anchorMask(g.m, connectorEdges))
    assert(TreeCompare.nodes(t1, dec1.truss).values.map(n => (n.id, n.k, n.edges.toSet, n.parent, n.children.length)).toSet ==
           Set((left.min, 4, left ++ right, -1, 0)))
    assertSameTree(t1, RecursiveTrussTree.build(g, dec1.truss), "anchored")
  }
}
