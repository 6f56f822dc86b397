package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.graph.{CompactGraph, GraphGen}
import repro.truss.LocalTruss

/** The three greedy variants must be interchangeable: same anchor sequence,
  * same gain (they share one deterministic tie-break). This is the
  * end-to-end check that the upward-route computation (BASE+ vs BASE) and
  * the tree-reuse machinery (GAS vs BASE+) introduce no behavioural drift.
  */
class GreedySpec extends SparkSpec {

  test("BASE+ equals BASE (anchors and gain) on random graphs") {
    for (seed <- 1 to 4) {
      val g = TestGraphs.random(12, 40, seed * 53 + 2)
      val rb = Greedy.base(spark, g, 3)
      val rp = Greedy.basePlus(spark, g, 3)
      assert(rb.anchors == rp.anchors, s"seed=$seed base=${rb.anchors} basePlus=${rp.anchors}")
      assert(rb.gain == rp.gain)
    }
  }

  test("GAS equals BASE+ (anchors and gain) on random graphs") {
    for (seed <- 1 to 8) {
      val g = TestGraphs.random(13, 48, seed * 59 + 4)
      val rp = Greedy.basePlus(spark, g, 4)
      val rg = Greedy.gas(spark, g, 4)
      assert(rp.anchors == rg.anchors, s"seed=$seed basePlus=${rp.anchors} gas=${rg.anchors}")
      assert(rp.gain == rg.gain, s"seed=$seed")
    }
  }

  test("GAS per-round marginals match BASE+ marginals") {
    for (seed <- 1 to 4) {
      val g = TestGraphs.random(13, 48, seed * 61 + 6)
      val rp = Greedy.basePlus(spark, g, 4)
      val rg = Greedy.gas(spark, g, 4)
      assert(rp.rounds.map(_.marginalGain) == rg.rounds.map(_.marginalGain))
    }
  }

  test("GAS equals BASE+ on the college stand-in at b=10, round for round") {
    // at stand-in scale later rounds mix partially and fully reused
    // candidates, which the 13-vertex graphs above barely reach
    val g = GraphGen.graph("college")
    val rp = Greedy.basePlus(spark, g, 10)
    val rg = Greedy.gas(spark, g, 10)
    assert(rp.anchors == rg.anchors)
    assert(rp.rounds.map(_.marginalGain) == rg.rounds.map(_.marginalGain))
    assert(rp.gain == rg.gain)
    rg.rounds.zipWithIndex.foreach { case (r, i) =>
      assert(r.evaluated + r.reusedFully == g.m - i, s"round ${r.round}")
    }
  }

  test("GAS, BASE+ and BASE agree on the college stand-in at b=5: anchors, marginals and TG") {
    // BASE scores every candidate by an anchored peel of the components it
    // touches; at this scale that peel is what the test exercises
    val g = GraphGen.graph("college")
    val t0 = System.nanoTime()
    val rb = Greedy.base(spark, g, 5)
    val baseMs = (System.nanoTime() - t0) / 1000000
    val rp = Greedy.basePlus(spark, g, 5)
    val rg = Greedy.gas(spark, g, 5)
    info(s"BASE on college (m=${g.m}, b=5): $baseMs ms")
    for ((name, r) <- Seq("BASE" -> rb, "GAS" -> rg)) {
      assert(r.anchors == rp.anchors, name)
      assert(r.rounds.map(_.marginalGain) == rp.rounds.map(_.marginalGain), name)
      assert(r.gain == rp.gain, name)
    }
    assert(rp.gain == LocalTruss.trussGain(g, LocalTruss.decompose(g), LocalTruss.anchorMask(g.m, rp.anchors)))
  }

  test("reported gain equals the exact TG of the final anchor set") {
    for (seed <- 1 to 4) {
      val g = TestGraphs.random(13, 48, seed * 67 + 8)
      val rg = Greedy.gas(spark, g, 3)
      val base = LocalTruss.decompose(g)
      val mask = LocalTruss.anchorMask(g.m, rg.anchors)
      assert(rg.gain == LocalTruss.trussGain(g, base, mask))
    }
  }

  test("GAS reuses results after round one") {
    val g = TestGraphs.random(30, 150, 71)
    val rg = Greedy.gas(spark, g, 4)
    // round 1 computes everything; later rounds must reuse something
    assert(rg.rounds.head.evaluated == g.m)
    assert(rg.rounds.tail.exists(_.reusedFully > 0),
      rg.rounds.map(r => (r.evaluated, r.reusedFully)).toString)
    // evaluated + reused covers all candidates each round
    rg.rounds.zipWithIndex.foreach { case (r, i) =>
      assert(r.evaluated + r.reusedFully == g.m - i)
    }
  }

  test("greedy marginals are the follower counts of the chosen anchors") {
    val g = TestGraphs.random(14, 55, 73)
    val rg = Greedy.gas(spark, g, 3)
    val anchors = new Array[Boolean](g.m)
    val finder = new FollowerFinder(g)
    rg.rounds.foreach { r =>
      val dec = LocalTruss.decompose(g, anchors)
      val expect = finder.find(dec.truss, dec.layer, r.anchor).count
      assert(r.marginalGain == expect, s"round ${r.round}")
      anchors(r.anchor) = true
    }
  }

  test("route sizes are per-edge and non-negative; clique has all-zero routes") {
    val g = TestGraphs.clique(6)
    val routes = Greedy.routeSizes(spark, g)
    assert(routes.length == g.m)
    assert(routes.forall(_ == 0))
  }

  test("route sizes equal FollowerFinder.find's route size for every edge") {
    val path = CompactGraph.fromEdges((0 until 30).map(i => (i, i + 1)))
    val mixed = (1 to 6).map(seed => TestGraphs.random(40, 110, seed * 43 + 5))
    // the random graphs hold edges in a triangle and edges in none
    mixed.foreach(g => assert(g.compEdges.length > 0 && g.compEdges.length < g.m))
    val graphs = mixed ++ Seq(path, CompactGraph.fromEdges(Seq.empty), GraphGen.graph("college"),
                              GraphGen.graph("pokec"))
    graphs.zipWithIndex.foreach { case (g, i) =>
      val want = ReferenceBaselines.routeSizes(g)
      assert(Greedy.routeSizes(spark, g).toSeq == want.toSeq, s"graph $i (m=${g.m})")
      // every graph here with a triangle has some non-empty route
      assert(want.exists(_ > 0) == g.compEdges.nonEmpty, s"graph $i")
    }
  }

  test("budget larger than the edge count terminates gracefully") {
    val g = TestGraphs.clique(4) // 6 edges
    val rg = Greedy.gas(spark, g, 10)
    assert(rg.anchors.size == g.m)
  }
}
