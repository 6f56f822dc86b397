package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.truss.LocalTruss

/** The synthetic dataset stand-ins: determinism, scale ordering, and
  * non-trivial truss structure (the whole point of the generator).
  */
class GraphGenSpec extends AnyFunSuite {

  test("generation is deterministic in the config") {
    val cfg = GraphGen.preset("college")
    val a = GraphGen.edges(cfg)
    val b = GraphGen.edges(cfg)
    assert(a == b)
  }

  test("all 8 presets exist, in increasing edge-count order like Table III") {
    assert(GraphGen.presets.map(_.name) ==
      Seq("college", "facebook", "brightkite", "gowalla", "youtube", "google", "patents", "pokec"))
    val sizes = GraphGen.presets.map(c => GraphGen.graph(c).m)
    // college smallest, pokec largest; overall ordering roughly increasing
    assert(sizes.head == sizes.min)
    assert(sizes.last == sizes.max)
  }

  test("edge counts land near their targets") {
    for (cfg <- GraphGen.presets) {
      val g = GraphGen.graph(cfg)
      assert(g.m >= cfg.targetEdges * 8 / 10, s"${cfg.name}: ${g.m} vs ${cfg.targetEdges}")
      assert(g.m <= cfg.targetEdges * 13 / 10, s"${cfg.name}: ${g.m} vs ${cfg.targetEdges}")
    }
  }

  test("college stand-in has non-trivial truss structure") {
    val g = GraphGen.graph("college")
    val r = LocalTruss.decompose(g)
    assert(r.kMax >= 5, s"kMax=${r.kMax}")
    // multiple hull levels populated
    val levels = r.truss.distinct.sorted
    assert(levels.length >= 3, levels.toSeq.toString)
  }

  test("facebook stand-in has the largest kMax (dense ego-cliques)") {
    val fb = LocalTruss.decompose(GraphGen.graph("facebook")).kMax
    val col = LocalTruss.decompose(GraphGen.graph("college")).kMax
    assert(fb > col, s"facebook kMax=$fb college kMax=$col")
    assert(fb >= 12, s"facebook kMax=$fb")
  }

  test("extractSubgraph yields a connected piece in the requested size band") {
    val g = GraphGen.graph("college")
    val sub = GraphGen.extractSubgraph(g, seedVertex = g.adjV(0), lo = 150, hi = 250)
    assert(sub.m >= 100 && sub.m <= 250, s"sub.m=${sub.m}")
  }

  test("extractSubgraph keeps no vertex that would take it above hi, so a clique stays a clique") {
    // on K_25 from vertex 0, 17 vertices induce 136 edges and an 18th would make 153
    val sub = GraphGen.extractSubgraph(TestGraphs.clique(25), seedVertex = 0, lo = 140, hi = 150)
    assert(sub.m <= 150, s"sub.m=${sub.m}")
    assert(sub.m == sub.n * (sub.n - 1) / 2, s"${sub.m} edges on ${sub.n} vertices is not a clique")
  }
}
