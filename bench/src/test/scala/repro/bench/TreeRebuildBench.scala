package repro.bench

import repro.SparkSpec
import repro.core.{Greedy, TrussTree}
import repro.graph.{CompactGraph, GraphGen}
import repro.truss.LocalTruss

/** The truss-component tree layer on its own: 20-anchor chains on the
  * facebook and pokec stand-ins at the generator seeds 3 and 7. Facebook
  * follows GAS's own 20 anchors (one component holds most of the edges, so
  * every rebuild redoes it); pokec follows its 20 top-support edges (no
  * component above a few hundred edges, so a rebuild redoes a sliver).
  * Each step rebuilds the tree from the previous one with the new anchor
  * as the only dirty edge, as `FollowerReuse.refresh` does, and builds it
  * from scratch; both are timed. That the two trees are equal is
  * `TrussTreeSpec`'s to check. The last tree's node count and depth (its
  * longest parent chain, in nodes) are printed too: `subtreeEdges` costs
  * O(m · depth).
  */
class TreeRebuildBench extends SparkSpec {

  private val b = 20

  /** Node count and depth of `tree`. */
  private def shape(tree: TrussTree): (Int, Int) = {
    val depth = new Array[Int](tree.nodeOf.length) // per node id; 0 until known
    def depthOf(id: Int): Int = {
      if (depth(id) == 0) depth(id) = 1 + (if (tree.parent(id) == -1) 0 else depthOf(tree.parent(id)))
      depth(id)
    }
    val ids = tree.nodeOf.indices.filter(e => tree.nodeOf(e) == e)
    (ids.size, ids.map(depthOf).maxOption.getOrElse(0))
  }

  /** Summed rebuild and build ms along the chain `xs`, and the last tree. */
  private def chain(g: CompactGraph, xs: Seq[Int]): (Double, Double, TrussTree) = {
    val anchors = new Array[Boolean](g.m)
    var tree = TrussTree.build(g, LocalTruss.decompose(g).truss)
    var rebuildNs = 0L
    var buildNs = 0L
    xs.foreach { x =>
      anchors(x) = true
      val truss = LocalTruss.decompose(g, anchors).truss
      val t0 = System.nanoTime()
      tree = TrussTree.rebuild(g, truss, tree, Seq(x))
      val t1 = System.nanoTime()
      TrussTree.build(g, truss)
      buildNs += System.nanoTime() - t1
      rebuildNs += t1 - t0
    }
    (rebuildNs / 1e6, buildNs / 1e6, tree)
  }

  test("tree rebuild and build times along 20-anchor chains on facebook and pokec, seeds 3 and 7") {
    val rows = for (name <- Seq("facebook", "pokec"); seed <- Seq(3L, 7L)) yield {
      val g = GraphGen.graph(GraphGen.preset(name).copy(seed = seed))
      val (xs, route) =
        if (name == "facebook") (Greedy.gas(spark, g, b).anchors, "GAS anchors")
        else ((0 until g.m).sortBy(e => (-g.support(e), e)).take(b), "top-support edges")
      val (rebuildMs, buildMs, last) = chain(g, xs)
      val (nodes, depth) = shape(last)
      (name, seed, g.m, route, rebuildMs, buildMs, nodes, depth)
    }
    println(s"\n=== Truss-component tree: $b-anchor chains, summed ms; last tree's nodes and depth ===")
    println(f"${"graph"}%-9s ${"seed"}%4s ${"|E|"}%7s ${"anchors"}%-18s ${"rebuild"}%9s ${"build"}%9s ${"nodes"}%7s ${"depth"}%5s")
    rows.foreach { case (name, seed, m, route, rebuildMs, buildMs, nodes, depth) =>
      println(f"$name%-9s $seed%4d $m%7d $route%-18s $rebuildMs%9.1f $buildMs%9.1f $nodes%7d $depth%5d")
    }
  }
}
