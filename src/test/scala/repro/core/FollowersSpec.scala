package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.graph.{CompactGraph, GraphGen}
import repro.truss.LocalTruss

/** Algorithm 3 (GetFollowers) against ground truth: for every candidate
  * anchor of many random graphs, the upward-route + support-check result
  * must equal the follower set obtained by a full anchored truss
  * re-decomposition. This exercises Lemmas 1, 2 and 3 end to end,
  * including the Retract cascade and multi-round (existing-anchor) cases.
  */
class FollowersSpec extends AnyFunSuite {

  /** Ground truth: followers of anchoring `x` on top of `anchors`. */
  private def bruteFollowers(g: CompactGraph, anchors: Array[Boolean], x: Int): Set[Int] = {
    val base = LocalTruss.decompose(g, anchors)
    val mask = anchors.clone(); mask(x) = true
    val after = LocalTruss.decompose(g, mask)
    (0 until g.m).filter { e =>
      !mask(e) && after.truss(e) > base.truss(e)
    }.toSet
  }

  private def checkAllEdges(g: CompactGraph, anchors: Array[Boolean] = null): Unit = {
    val mask = if (anchors == null) new Array[Boolean](g.m) else anchors
    val dec = LocalTruss.decompose(g, mask)
    val finder = new FollowerFinder(g)
    for (x <- 0 until g.m if !mask(x)) {
      val got = finder.find(dec.truss, dec.layer, x).followers.toSet
      val want = bruteFollowers(g, mask, x)
      assert(got == want,
        s"anchor $x=(${g.edgeU(x)},${g.edgeV(x)}): got=$got want=$want " +
        s"truss=${dec.truss.toSeq} layer=${dec.layer.toSeq}")
    }
  }

  test("Lemma 1: single anchor raises trussness by at most 1 (random graphs)") {
    for (seed <- 1 to 12) {
      val g = TestGraphs.random(12, 40, seed)
      val base = LocalTruss.decompose(g)
      for (x <- 0 until g.m) {
        val after = LocalTruss.decompose(g, LocalTruss.anchorMask(g.m, Seq(x)))
        for (e <- 0 until g.m if e != x)
          assert(after.truss(e) - base.truss(e) <= 1,
            s"seed=$seed x=$x e=$e base=${base.truss(e)} after=${after.truss(e)}")
      }
    }
  }

  test("follower counts equal the anchored gain on every edge of college (Lemma 1)") {
    val g = GraphGen.graph("college")
    for (anchors <- Seq(new Array[Boolean](g.m), FollowerOracle.topSupport(g, 5))) {
      val bad = FollowerOracle.mismatches(g, anchors)
      assert(bad.isEmpty, s"(x, count, gain): ${bad.take(10).mkString(", ")}")
    }
  }

  test("followers on a clique: anchoring any edge gains nothing") {
    val g = TestGraphs.clique(6)
    val dec = LocalTruss.decompose(g)
    val finder = new FollowerFinder(g)
    for (x <- 0 until g.m)
      assert(finder.find(dec.truss, dec.layer, x).count == 0)
  }

  test("followers on a near-clique: anchoring the missing-support edge promotes peers") {
    // K5 minus one edge: the 8 edges touching the gap have trussness 4,
    // the opposite edge(s) trussness... verify against brute force anyway
    val all = for (i <- 0 until 5; j <- (i + 1) until 5) yield (i, j)
    val g = CompactGraph.fromEdges(all.filterNot(_ == (0, 1)))
    checkAllEdges(g)
  }

  test("followers match brute force on cycles (no triangles, no followers)") {
    val g = TestGraphs.cycle(8)
    val dec = LocalTruss.decompose(g)
    val finder = new FollowerFinder(g)
    for (x <- 0 until g.m)
      assert(finder.find(dec.truss, dec.layer, x).count == 0)
  }

  test("followers match brute force on bowtie cliques") {
    checkAllEdges(TestGraphs.bowtieCliques(5))
  }

  test("followers match brute force on many small random graphs") {
    for (seed <- 1 to 40) {
      checkAllEdges(TestGraphs.random(10, 30, seed * 31 + 1))
    }
  }

  test("followers match brute force on medium random graphs") {
    for (seed <- 1 to 10) {
      checkAllEdges(TestGraphs.random(18, 80, seed * 17 + 3))
    }
    // 40-190 edges, where deeper retract cascades occur
    for (seed <- 1 to 300) {
      val rnd = new scala.util.Random(seed)
      checkAllEdges(TestGraphs.random(12 + rnd.nextInt(20), 40 + rnd.nextInt(150), seed))
    }
  }

  test("followers match brute force with existing anchors (later greedy rounds)") {
    for (seed <- 1 to 12) {
      val g = TestGraphs.random(12, 45, seed * 101 + 7)
      val rnd = new scala.util.Random(seed)
      val anchors = new Array[Boolean](g.m)
      anchors(rnd.nextInt(g.m)) = true
      anchors(rnd.nextInt(g.m)) = true
      checkAllEdges(g, anchors)
    }
  }

  test("followers match brute force when one retract removes two survivors of a triangle") {
    // shrunk from a random graph: anchoring edge 14 gains nothing, and the
    // retract cascade must withdraw each dead triangle from every survivor
    // that counted it, also when two of its edges drop out in one cascade
    val g = CompactGraph.fromEdges(Seq(
      (0, 17), (0, 20), (0, 21), (0, 23), (5, 9), (5, 17), (6, 9), (6, 11), (6, 22), (9, 11),
      (9, 17), (9, 21), (9, 22), (11, 15), (11, 20), (11, 21), (11, 22), (11, 25), (15, 20),
      (15, 23), (15, 25), (17, 20), (17, 21), (20, 23), (21, 23), (21, 25), (23, 25)))
    checkAllEdges(g)
  }

  test("route size is zero exactly when there are no qualifying seeds") {
    for (seed <- 1 to 10) {
      val g = TestGraphs.random(12, 40, seed * 7 + 5)
      val dec = LocalTruss.decompose(g)
      val finder = new FollowerFinder(g)
      for (x <- 0 until g.m) {
        val r = finder.find(dec.truss, dec.layer, x)
        if (r.routeSize == 0) assert(r.count == 0)
        assert(r.count <= r.routeSize || r.routeSize == 0)
      }
    }
  }

  test("multi-anchor search at a single level only returns that level") {
    for (seed <- 1 to 8) {
      val g = TestGraphs.random(12, 45, seed * 13 + 11)
      val dec = LocalTruss.decompose(g)
      val finder = new FollowerFinder(g)
      val xs = Array(0, g.m / 2)
      for (level <- 3 to dec.kMax) {
        val r = finder.findMulti(dec.truss, dec.layer, xs.distinct, onlyLevel = level)
        r.followers.foreach(f => assert(dec.truss(f) == level))
      }
    }
  }

  test("followers are attributed to their truss-tree nodes (Lemma 4)") {
    for (seed <- 1 to 10) {
      val g = TestGraphs.random(12, 45, seed * 19 + 2)
      val dec = LocalTruss.decompose(g)
      val tree = TrussTree.build(g, dec.truss)
      val finder = new FollowerFinder(g)
      for (x <- 0 until g.m) {
        val r = finder.find(dec.truss, dec.layer, x, tree.nodeOf)
        assert(r.perNode.values.sum == r.count)
        // every follower's node is a subtree-adjacency node of x
        val slaX = TrussTree.sla(g, dec.truss, tree.nodeOf, x).toSet
        r.followers.foreach { f =>
          assert(slaX.contains(tree.nodeOf(f)),
            s"seed=$seed x=$x follower $f in node ${tree.nodeOf(f)} not in sla($x)=$slaX")
        }
      }
    }
  }
}
