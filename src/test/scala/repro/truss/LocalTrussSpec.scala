package repro.truss

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.graph.{CompactGraph, GraphGen}
import scala.util.Random

/** The exact decomposition kernel against known-by-hand structures, the
  * paper's structural facts (k-hulls, layers, anchors), and the reference
  * peels of [[ReferenceTruss]].
  */
class LocalTrussSpec extends AnyFunSuite {

  test("clique K_n has trussness n on every edge") {
    for (n <- 3 to 8) {
      val g = TestGraphs.clique(n)
      val r = LocalTruss.decompose(g)
      assert(r.truss.forall(_ == n), s"K$n: ${r.truss.toSeq}")
      assert(r.kMax == n)
    }
  }

  test("triangle-free graphs have trussness 2 everywhere") {
    val g = TestGraphs.cycle(10)
    val r = LocalTruss.decompose(g)
    assert(r.truss.forall(_ == 2))
    assert(r.kMax == 2)
  }

  test("clique with pendant triangle: hand-computed trussness") {
    // K5 on {0..4} plus triangle {4,5,6}: clique edges t=5, the three
    // triangle edges t=3
    val clique = for (i <- 0 until 5; j <- (i + 1) until 5) yield (i, j)
    val g = CompactGraph.fromEdges(clique ++ Seq((4, 5), (4, 6), (5, 6)))
    val r = LocalTruss.decompose(g)
    for (e <- 0 until g.m) {
      val expect = if (g.edgeV(e) >= 5) 3 else 5
      assert(r.truss(e) == expect, s"edge ${g.endpoints(e)}: ${r.truss(e)}")
    }
  }

  test("bowtie cliques: both cliques keep their trussness") {
    val g = TestGraphs.bowtieCliques(5)
    val r = LocalTruss.decompose(g)
    // shared edge (0,1) belongs to both K5s; every edge has trussness 5
    assert(r.truss.forall(_ == 5), r.truss.toSeq.toString)
  }

  test("layers: K4 plus a dangling triangle peels the triangle first") {
    // K4 on {0..3}; triangle {3,4,5}. Triangle edges: trussness 3 layer 1.
    val g = CompactGraph.fromEdges(
      (for (i <- 0 until 4; j <- (i + 1) until 4) yield (i, j)) ++
      Seq((3, 4), (3, 5), (4, 5)))
    val r = LocalTruss.decompose(g)
    for (e <- 0 until g.m if g.edgeV(e) >= 4) {
      assert(r.truss(e) == 3)
      assert(r.layer(e) == 1)
    }
  }

  test("layers: a chain of triangles peels outside-in with increasing layers") {
    // fan: triangles (0,1,2),(0,2,3),(0,3,4): all edges trussness 3; the
    // outermost edges go in earlier layers than the middle ones
    val g = CompactGraph.fromEdges(Seq((0, 1), (1, 2), (0, 2), (2, 3), (0, 3), (3, 4), (0, 4)))
    val r = LocalTruss.decompose(g)
    assert(r.truss.forall(_ == 3))
    val l12 = r.layer(TestGraphs.edgeId(g, 1, 2))
    val l02 = r.layer(TestGraphs.edgeId(g, 0, 2))
    assert(l12 <= l02)
  }

  test("every edge gets exactly one (trussness, layer) and trussness >= 2") {
    for (seed <- 1 to 20) {
      val g = TestGraphs.random(14, 50, seed)
      val r = LocalTruss.decompose(g)
      assert(r.truss.forall(_ >= 2))
      assert(r.layer.forall(_ >= 1))
    }
  }

  test("k-truss property: edges with trussness >= k have support >= k-2 within them") {
    for (seed <- 1 to 15) {
      val g = TestGraphs.random(14, 50, seed * 3)
      val r = LocalTruss.decompose(g)
      for (k <- 3 to r.kMax) {
        val in = (0 until g.m).filter(r.truss(_) >= k).toSet
        for (e <- in) {
          var sup = 0
          g.foreachTriangle(e)((a, b) => if (in(a) && in(b)) sup += 1)
          assert(sup >= k - 2, s"seed=$seed k=$k edge=$e sup=$sup")
        }
      }
    }
  }

  test("maximality: no edge outside the k-truss could survive within it") {
    // {e : truss(e) >= k} is the whole k-truss: the fixpoint of deleting,
    // from the whole graph, every non-anchor whose support among the edges
    // left is below k-2
    for (seed <- 1 to 10; anchored <- Seq(false, true)) {
      val g = TestGraphs.random(12, 40, seed * 5)
      val anchors = LocalTruss.anchorMask(g.m, if (anchored) Seq(0, g.m / 2) else Nil)
      val r = LocalTruss.decompose(g, anchors)
      for (k <- 2 to r.kMax + 1) {
        val kTruss = Array.fill(g.m)(true)
        var shrinking = true
        while (shrinking) {
          val sup = ReferenceTruss.supportWithin(g, kTruss)
          val drop = (0 until g.m).filter(e => kTruss(e) && !anchors(e) && sup(e) < k - 2)
          drop.foreach(kTruss(_) = false)
          shrinking = drop.nonEmpty
        }
        assert((0 until g.m).filter(r.truss(_) >= k) == (0 until g.m).filter(kTruss),
               s"seed=$seed anchored=$anchored k=$k")
      }
    }
  }

  test("anchored edges are never removed and report Int.MaxValue trussness") {
    for (seed <- 1 to 10) {
      val g = TestGraphs.random(12, 40, seed * 7)
      val anchors = LocalTruss.anchorMask(g.m, Seq(0, g.m / 2))
      val r = LocalTruss.decompose(g, anchors)
      assert(r.truss(0) == Int.MaxValue && r.layer(0) == 0)
      assert(r.truss(g.m / 2) == Int.MaxValue)
    }
  }

  test("anchoring never decreases any trussness (monotonicity)") {
    for (seed <- 1 to 10) {
      val g = TestGraphs.random(12, 40, seed * 11)
      val base = LocalTruss.decompose(g)
      val anchors = LocalTruss.anchorMask(g.m, Seq(seed % g.m))
      val after = LocalTruss.decompose(g, anchors)
      for (e <- 0 until g.m if !anchors(e))
        assert(after.truss(e) >= base.truss(e))
    }
  }

  test("trussGain on a clique is zero; on K5-minus-an-edge anchoring the gap is positive") {
    val k6 = TestGraphs.clique(6)
    val b6 = LocalTruss.decompose(k6)
    assert(LocalTruss.trussGain(k6, b6, LocalTruss.anchorMask(k6.m, Seq(0))) == 0)

    val all = for (i <- 0 until 5; j <- (i + 1) until 5) yield (i, j)
    val g = CompactGraph.fromEdges(all) // K5
    // remove edge (0,1) and instead anchor a re-added one: build K5 minus
    // (0,1), the rest have trussness 4; brute check that anchoring any edge
    // gives a non-negative gain
    val gMinus = CompactGraph.fromEdges(all.filterNot(_ == (0, 1)))
    val base = LocalTruss.decompose(gMinus)
    for (x <- 0 until gMinus.m)
      assert(LocalTruss.trussGain(gMinus, base, LocalTruss.anchorMask(gMinus.m, Seq(x))) >= 0)
    assert(g.m == 10)
  }

  test("decomposition is deterministic") {
    for (seed <- 1 to 5) {
      val g = TestGraphs.random(14, 50, seed * 13)
      val r1 = LocalTruss.decompose(g)
      val r2 = LocalTruss.decompose(g)
      assert(r1.truss.sameElements(r2.truss))
      assert(r1.layer.sameElements(r2.layer))
    }
  }

  private def assertSameAsReference(g: CompactGraph, anchors: Array[Boolean], clue: String): Unit = {
    val got = LocalTruss.decompose(g, anchors)
    val want = ReferenceTruss.decompose(g, anchors)
    assert(got.truss.sameElements(want.truss), s"$clue truss")
    assert(got.layer.sameElements(want.layer), s"$clue layer")
    assert(got.kMax == want.kMax, clue)
  }

  /** Trussness, layers and kMax against [[ReferenceTruss.bySweeps]], which
    * recounts supports from the surviving edges at every sweep.
    */
  private def assertSameBySweeps(g: CompactGraph, anchors: Array[Boolean], clue: String): Unit = {
    val got = LocalTruss.decompose(g, anchors)
    val want = ReferenceTruss.bySweeps(g, anchors)
    for (e <- 0 until g.m) {
      assert(got.truss(e) == want.truss(e), s"$clue edge $e truss: local=${got.truss(e)} by sweeps=${want.truss(e)}")
      assert(got.layer(e) == want.layer(e), s"$clue edge $e layer: local=${got.layer(e)} by sweeps=${want.layer(e)}")
    }
    assert(got.kMax == want.kMax, clue)
  }

  test("decompose equals the peel by sweeps on a clique, a cycle, bowtie cliques and random graphs") {
    assertSameBySweeps(TestGraphs.clique(6), null, "clique(6)")
    assertSameBySweeps(TestGraphs.cycle(7), null, "cycle(7)")
    assertSameBySweeps(TestGraphs.bowtieCliques(5), null, "bowtieCliques(5)")
    for (seed <- 1 to 4) assertSameBySweeps(TestGraphs.random(14, 45, seed * 23), null, s"random seed=$seed")
  }

  test("decompose equals the peel by sweeps with anchored edges") {
    for (seed <- 1 to 3) {
      val g = TestGraphs.random(12, 40, seed * 29)
      assertSameBySweeps(g, LocalTruss.anchorMask(g.m, Seq(0, g.m / 2)), s"seed=$seed")
    }
  }

  test("decompose equals the reference peel on random graphs with 0-20 anchors") {
    for (seed <- 1 to 40) {
      val g = TestGraphs.random(16, 40 + seed, seed * 17)
      val rnd = new Random(seed)
      val anchors = LocalTruss.anchorMask(g.m, Seq.fill(rnd.nextInt(21))(rnd.nextInt(g.m)))
      assertSameAsReference(g, anchors, s"seed=$seed")
    }
  }

  test("decompose equals the reference peel on college, facebook and pokec with 20 anchors") {
    for (name <- Seq("college", "facebook", "pokec")) {
      val g = GraphGen.graph(name)
      val rnd = new Random(name.hashCode)
      assertSameAsReference(g, null, name)
      assertSameAsReference(g, LocalTruss.anchorMask(g.m, Seq.fill(20)(rnd.nextInt(g.m))), s"$name anchored")
      val bySupport = topFifth(Array.tabulate(g.m)(g.support))
      assertSameAsReference(g, LocalTruss.anchorMask(g.m, Seq.fill(20)(bySupport(rnd.nextInt(bySupport.length)))),
                            s"$name anchored by support")
    }
  }

  /** TG by the definition: the reference peel of the whole anchored graph,
    * summed over the non-anchors against `base`.
    */
  private def referenceGain(g: CompactGraph, base: LocalTruss.Result, anchors: Array[Boolean]): Long = {
    val after = ReferenceTruss.decompose(g, anchors)
    (0 until g.m).filter(!anchors(_)).map(e => (after.truss(e) - base.truss(e)).toLong).sum
  }

  /** Edge ids in the top 20% by `score`, ties by edge id. */
  private def topFifth(score: Array[Int]): Array[Int] =
    score.indices.sortBy(e => (-score(e), e)).take(math.max(1, score.length / 5)).toArray

  /** The decomposition under a non-empty proper subset of the anchors
    * `ids` (the first half of the distinct ids), or None for fewer than two.
    */
  private def subsetBase(g: CompactGraph, ids: Seq[Int]): Option[LocalTruss.Result] = {
    val distinct = ids.distinct
    if (distinct.size < 2) None
    else Some(ReferenceTruss.decompose(g, LocalTruss.anchorMask(g.m, distinct.take(distinct.size / 2))))
  }

  test("trussGain equals the reference peel's gain on random graphs with 0-20 anchors") {
    // against the plain decomposition, and against one under a subset of the anchors
    for (seed <- 1 to 40) {
      val g = TestGraphs.random(16, 40 + seed, seed * 23)
      val rnd = new Random(seed)
      val ids = Seq.fill(rnd.nextInt(21))(rnd.nextInt(g.m))
      val anchors = LocalTruss.anchorMask(g.m, ids)
      for ((which, base) <- ("plain" -> ReferenceTruss.decompose(g)) +: subsetBase(g, ids).map("subset" -> _).toSeq) {
        val want = referenceGain(g, base, anchors)
        assert(LocalTruss.trussGain(g, base, anchors) == want, s"seed=$seed base=$which")
        // given every anchor as possibly new, without the scan
        assert(LocalTruss.gainAround(g, base, anchors, ids) == want, s"seed=$seed base=$which gainAround")
      }
    }
  }

  test("trussGain equals the reference peel's gain on college, facebook and pokec: 50 trials per pool") {
    for (name <- Seq("college", "facebook", "pokec")) {
      val g = GraphGen.graph(name)
      val base = ReferenceTruss.decompose(g)
      val finder = new repro.core.FollowerFinder(g)
      val routes = Array.tabulate(g.m)(finder.find(base.truss, base.layer, _).routeSize)
      val pools = Seq("all" -> Array.range(0, g.m),
                      "support" -> topFifth(Array.tabulate(g.m)(g.support)),
                      "route" -> topFifth(routes))
      for ((pool, edges) <- pools; trial <- 1 to 50) {
        val rnd = new Random(trial * 31 + pool.hashCode)
        val ids = Seq.fill(20)(edges(rnd.nextInt(edges.length)))
        val anchors = LocalTruss.anchorMask(g.m, ids)
        assert(LocalTruss.trussGain(g, base, anchors) == referenceGain(g, base, anchors),
               s"$name pool=$pool trial=$trial")
        // every fifth trial also against the decomposition under a subset of the anchors
        if (trial % 5 == 0) subsetBase(g, ids).foreach { sub =>
          assert(LocalTruss.trussGain(g, sub, anchors) == referenceGain(g, sub, anchors),
                 s"$name pool=$pool trial=$trial base=subset")
        }
      }
    }
  }

  private def assertMaskRejected(len: Int): Unit = {
    val g = TestGraphs.clique(4) // 6 edges
    val base = LocalTruss.decompose(g)
    val mask = new Array[Boolean](len)
    val want = s"anchor mask has length $len, but the graph has 6 edges"
    assert(intercept[IllegalArgumentException](LocalTruss.decompose(g, mask)).getMessage.contains(want))
    assert(intercept[IllegalArgumentException](LocalTruss.trussGain(g, base, mask)).getMessage.contains(want))
  }

  test("a mask shorter than m is rejected with a message naming both lengths") {
    assertMaskRejected(5)
  }

  test("a mask longer than m is rejected with a message naming both lengths") {
    assertMaskRejected(7)
  }
}
