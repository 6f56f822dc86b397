package repro.graph

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import repro.{SparkSpec, TestGraphs}
import repro.core.{Greedy, TrussTree}
import repro.truss.LocalTruss

/** CSR construction invariants, triangle enumeration vs brute force, input
  * validation, and the tree and GAS on degenerate graphs.
  */
class CompactGraphSpec extends SparkSpec {

  test("canonicalization: drops self-loops, duplicates and orients u < v") {
    val g = CompactGraph.fromEdges(Seq((1, 0), (0, 1), (2, 2), (1, 2), (2, 1)))
    assert(g.m == 2)
    assert(g.endpoints(0) == (0, 1))
    assert(g.endpoints(1) == (1, 2))
  }

  test("adjacency runs are sorted and degree-consistent") {
    for (seed <- 1 to 20) {
      val g = TestGraphs.random(15, 60, seed)
      var degSum = 0
      for (u <- 0 until g.n) {
        degSum += g.degree(u)
        val run = (g.adjOff(u) until g.adjOff(u + 1)).map(g.adjV)
        assert(run == run.sorted, s"seed=$seed u=$u run=$run")
        assert(run.distinct == run)
      }
      assert(degSum == 2 * g.m)
    }
  }

  test("edge ids are assigned in sorted (u,v) order") {
    for (seed <- 1 to 10) {
      val g = TestGraphs.random(15, 60, seed * 3)
      val pairs = (0 until g.m).map(g.endpoints)
      assert(pairs == pairs.sorted)
    }
  }

  test("support equals brute-force common-neighbor count") {
    for (seed <- 1 to 20) {
      val g = TestGraphs.random(12, 45, seed * 7)
      val adj = Array.fill(g.n)(scala.collection.mutable.Set.empty[Int])
      for (e <- 0 until g.m) {
        adj(g.edgeU(e)) += g.edgeV(e); adj(g.edgeV(e)) += g.edgeU(e)
      }
      for (e <- 0 until g.m) {
        val want = (adj(g.edgeU(e)) & adj(g.edgeV(e))).size
        assert(g.support(e) == want)
      }
    }
  }

  test("foreachTriangle yields co-edges that really form a triangle") {
    for (seed <- 1 to 15) {
      val g = TestGraphs.random(12, 45, seed * 11)
      for (e <- 0 until g.m) {
        g.foreachTriangle(e) { (a, b) =>
          val vs = Set(g.edgeU(e), g.edgeV(e), g.edgeU(a), g.edgeV(a), g.edgeU(b), g.edgeV(b))
          assert(vs.size == 3, s"seed=$seed e=$e a=$a b=$b vs=$vs")
        }
      }
    }
  }

  test("triangle incidence is divisible by 3 on ScalaCheck-random edge lists") {
    val edgeGen = Gen.listOfN(40, Gen.zip(Gen.choose(0, 9), Gen.choose(0, 9)))
    for (s <- 1 to 30) {
      val edges = edgeGen.pureApply(Gen.Parameters.default, Seed(s.toLong))
      val g = CompactGraph.fromEdges(edges)
      // each triangle is counted once per member edge
      val total = (0 until g.m).map(g.support).sum
      assert(total % 3 == 0, s"seed=$s total=$total")
    }
  }

  test("incidentEdges returns each incident edge exactly once") {
    for (seed <- 1 to 10) {
      val g = TestGraphs.random(12, 40, seed * 13)
      val all = (0 until g.n).flatMap(g.incidentEdges)
      assert(all.size == 2 * g.m)
      assert(all.groupBy(identity).forall(_._2.size == 2))
    }
  }

  test("empty and tiny graphs") {
    val empty = CompactGraph.fromEdges(Nil)
    assert(empty.m == 0 && empty.n == 0)
    val one = CompactGraph.fromEdges(Seq((0, 1)))
    assert(one.m == 1 && one.n == 2 && one.support(0) == 0)
  }

  test("a negative vertex id is rejected with a message naming it") {
    val err = intercept[IllegalArgumentException](CompactGraph.fromEdges(Seq((-1, 2), (2, 3))))
    assert(err.getMessage.contains("negative vertex id -1"), err.getMessage)
  }

  test("empty graph: no tree nodes, GAS anchors nothing and gains 0") {
    val g = CompactGraph.fromEdges(Nil)
    assert(TrussTree.build(g, LocalTruss.decompose(g).truss).nodes.isEmpty)
    val r = Greedy.gas(spark, g, 3)
    assert(r.anchors.isEmpty && r.gain == 0)
  }

  test("triangle-free path: GAS picks edges 0 and 1 by tie-break and gains 0") {
    val g = CompactGraph.fromEdges(Seq((0, 1), (1, 2), (2, 3), (3, 4)))
    val r = Greedy.gas(spark, g, 2)
    assert(r.anchors == List(0, 1) && r.gain == 0)
  }

  test("triangle with every edge anchored: the tree has no nodes") {
    val g = TestGraphs.clique(3)
    val dec = LocalTruss.decompose(g, LocalTruss.anchorMask(g.m, 0 until g.m))
    assert(TrussTree.build(g, dec.truss).nodes.isEmpty)
  }
}
