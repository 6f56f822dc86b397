package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.graph.{CompactGraph, GraphGen}
import repro.truss.LocalTruss

/** AKT vertex-anchoring baseline (Exp-9 comparison). */
class AKTSpec extends AnyFunSuite {

  test("clique: AKT finds nothing to anchor at any k (no k-1 hull below kMax)") {
    val g = TestGraphs.clique(5)
    for (k <- 3 to 5) {
      val r = AKT.run(g, k, b = 2)
      assert(r.globalGain == 0, s"k=$k gain=${r.globalGain}")
    }
  }

  test("K5 minus an edge: anchoring a vertex of the gap recovers the clique") {
    val all = for (i <- 0 until 5; j <- (i + 1) until 5) yield (i, j)
    val g = CompactGraph.fromEdges(all.filterNot(_ == (0, 1)))
    val base = LocalTruss.decompose(g)
    assert(base.kMax == 4)
    val r = AKT.run(g, k = 5, b = 1)
    // anchoring vertex 0 or 1 anchors its incident edges, lifting others
    assert(r.vertices.nonEmpty)
    assert(r.globalGain >= 0)
  }

  test("gain equals the exact count of (k-1)-hull edges pulled into the k-truss") {
    for (seed <- 1 to 6) {
      val g = TestGraphs.random(14, 50, seed * 103 + 9)
      val base = LocalTruss.decompose(g)
      for (k <- 3 to base.kMax) {
        val r = AKT.run(g, k, b = 2)
        val anchors = LocalTruss.anchorMask(g.m, r.anchoredEdges)
        val after = LocalTruss.decompose(g, anchors)
        val want = (0 until g.m).count { e =>
          !anchors(e) && base.truss(e) == k - 1 && after.truss(e) >= k
        }
        assert(r.globalGain == want, s"seed=$seed k=$k")
      }
    }
  }

  test("a negative b is rejected with a message naming it; b = 0 anchors nothing") {
    val g = TestGraphs.random(14, 50, 211)
    val e = intercept[IllegalArgumentException](AKT.run(g, 3, -1))
    assert(e.getMessage.contains("b must be non-negative"), e.getMessage)
    val r = AKT.run(g, 3, 0)
    assert(r.vertices.isEmpty && r.anchoredEdges.isEmpty && r.globalGain == 0)
  }

  test("sweep covers k in [3, kMax]") {
    val g = TestGraphs.random(14, 50, 211)
    val kMax = LocalTruss.decompose(g).kMax
    val rs = AKT.sweep(g, b = 1)
    assert(rs.map(_.k) == (3 to kMax))
  }

  test("chosen vertices are endpoints of (k-1)-hull edges") {
    for (seed <- Seq(5, 9)) {
      val g = TestGraphs.random(14, 50, seed * 107)
      val dec = LocalTruss.decompose(g)
      for (k <- 3 to dec.kMax) {
        val r = AKT.run(g, k, b = 1)
        val hullVerts = (0 until g.m).filter(dec.truss(_) == k - 1)
          .flatMap(e => Seq(g.edgeU(e), g.edgeV(e))).toSet
        r.vertices.headOption.foreach(v => assert(hullVerts.contains(v)))
      }
    }
  }

  test("AKT.run equals ReferenceAKT.run on random graphs, a graph with isolated vertices and college") {
    def same(g: CompactGraph, k: Int, b: Int, what: String): Unit = {
      val got = AKT.run(g, k, b)
      val want = ReferenceAKT.run(g, k, b)
      assert(got == want, s"$what k=$k b=$b")
    }
    val randoms = (1 to 8).map(s => s"random seed $s" -> TestGraphs.random(14 + 2 * s, 45 + 10 * s, s * 131 + 7))
    // vertex v of a random graph becomes 3v + 1, so ids 3v and 3v + 2 are isolated
    val sparse = TestGraphs.random(16, 60, 977)
    val isolated = CompactGraph.fromEdges((0 until sparse.m).map(e => (3 * sparse.edgeU(e) + 1, 3 * sparse.edgeV(e) + 1)))
    for ((what, g) <- randoms :+ ("isolated vertices" -> isolated); k <- 3 to LocalTruss.decompose(g).kMax;
         b <- Seq(0, 1, 2, 5))
      same(g, k, b, what)
    val college = GraphGen.graph("college")
    val kMax = LocalTruss.decompose(college).kMax
    for (k <- 3 to kMax) same(college, k, 10, "college")
    assert(AKT.sweep(college, 10) == (3 to kMax).map(ReferenceAKT.run(college, _, 10)))
  }
}
