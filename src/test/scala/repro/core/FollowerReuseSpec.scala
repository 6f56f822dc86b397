package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.graph.{CompactGraph, GraphGen}
import repro.truss.LocalTruss
import scala.util.Random

/** Lemma 5 / Algorithm 5: after anchoring, every follower result declared
  * reusable must indeed be unchanged against a fresh computation under the
  * new decomposition; everything that did change must be flagged stale. The
  * component-local refresh equals the whole-graph reference
  * [[ReferenceReuse]] along anchor sequences.
  */
class FollowerReuseSpec extends AnyFunSuite {

  test("declared-reusable per-node follower counts are actually unchanged") {
    for (seed <- 1 to 15) {
      val g = TestGraphs.random(13, 48, seed * 37 + 5)
      val anchors = new Array[Boolean](g.m)
      val state0 = FollowerReuse.initial(g, anchors)
      val finder = new FollowerFinder(g)

      // record F[e][id] for every candidate before anchoring
      val before = (0 until g.m).map { e =>
        finder.find(state0.truss, state0.layer, e, state0.tree.nodeOf).perNode
      }

      // anchor the greedy-best edge (most realistic for GAS)
      val best = (0 until g.m).maxBy(e => (before(e).values.sum, -e))
      anchors(best) = true
      val refresh = FollowerReuse.refresh(g, state0, best, anchors)
      val s1 = refresh.state

      for (e <- 0 until g.m if !anchors(e) && !refresh.invalidatedEdges.contains(e)) {
        val after = finder.find(s1.truss, s1.layer, e, s1.tree.nodeOf).perNode
        for (id <- s1.sla(e) if !refresh.staleNodes.contains(id)) {
          assert(before(e).getOrElse(id, 0) == after.getOrElse(id, 0),
            s"seed=$seed anchor=$best edge=$e node=$id " +
            s"before=${before(e).getOrElse(id, 0)} after=${after.getOrElse(id, 0)}")
        }
      }
    }
  }

  test("edges whose trussness or layer changed are invalidated") {
    for (seed <- 1 to 10) {
      val g = TestGraphs.random(13, 48, seed * 41 + 9)
      val anchors = new Array[Boolean](g.m)
      val state0 = FollowerReuse.initial(g, anchors)
      val x = seed % g.m
      anchors(x) = true
      val refresh = FollowerReuse.refresh(g, state0, x, anchors)
      val s1 = refresh.state
      for (e <- 0 until g.m if !anchors(e)) {
        if (s1.truss(e) != state0.truss(e) || s1.layer(e) != state0.layer(e))
          assert(refresh.invalidatedEdges.contains(e), s"seed=$seed e=$e not invalidated")
      }
    }
  }

  test("followers' old and new nodes are both stale") {
    for (seed <- 1 to 10) {
      val g = TestGraphs.random(13, 48, seed * 43 + 3)
      val anchors = new Array[Boolean](g.m)
      val state0 = FollowerReuse.initial(g, anchors)
      val finder = new FollowerFinder(g)
      val x = (seed * 7) % g.m
      val fx = finder.find(state0.truss, state0.layer, x).followers
      anchors(x) = true
      val refresh = FollowerReuse.refresh(g, state0, x, anchors)
      fx.foreach { f =>
        assert(refresh.staleNodes.contains(state0.tree.nodeOf(f)))
        assert(refresh.staleNodes.contains(refresh.state.tree.nodeOf(f)))
      }
      assert(refresh.staleNodes.contains(state0.tree.nodeOf(x)))
    }
  }

  test("sla is refreshed consistently (matches from-scratch computation)") {
    for (seed <- 1 to 10) {
      val g = TestGraphs.random(13, 48, seed * 47 + 1)
      val anchors = new Array[Boolean](g.m)
      val state0 = FollowerReuse.initial(g, anchors)
      val x = (seed * 3) % g.m
      anchors(x) = true
      val refresh = FollowerReuse.refresh(g, state0, x, anchors)
      val s1 = refresh.state
      val scratch = FollowerReuse.initial(g, anchors)
      for (e <- 0 until g.m) {
        assert(s1.sla(e).toSeq == scratch.sla(e).toSeq, s"seed=$seed e=$e")
        assert(s1.truss(e) == scratch.truss(e))
        assert(s1.layer(e) == scratch.layer(e))
        assert(s1.tree.nodeOf(e) == scratch.tree.nodeOf(e))
      }
    }
  }

  /** Run the refresh and the reference side by side along `xs` from the
    * unanchored state, comparing every output after each anchor.
    */
  private def assertSameAsReference(g: CompactGraph, xs: Seq[Int], clue: String): Unit = {
    val anchors = new Array[Boolean](g.m)
    var got = FollowerReuse.initial(g, anchors)
    var want = got
    xs.foreach { x =>
      anchors(x) = true
      val r = FollowerReuse.refresh(g, got, x, anchors)
      val w = ReferenceReuse.refresh(g, want, x, anchors)
      val at = s"$clue after anchoring $x"
      assert(r.state.truss.sameElements(w.state.truss), s"$at: truss")
      assert(r.state.layer.sameElements(w.state.layer), s"$at: layer")
      TreeCompare.firstDifference(r.state.tree, w.state.tree).foreach(d => fail(s"$at: tree: $d"))
      for (e <- 0 until g.m) assert(r.state.sla(e).sameElements(w.state.sla(e)), s"$at: sla($e)")
      assert(r.staleNodes == w.staleNodes, s"$at: staleNodes")
      assert(r.invalidatedEdges == w.invalidatedEdges, s"$at: invalidatedEdges")
      got = r.state
      want = w.state
    }
  }

  /** `n` distinct edges of `pool`, in random order. */
  private def sequence(pool: Seq[Int], n: Int, rnd: Random): Seq[Int] = rnd.shuffle(pool.distinct).take(n)

  test("the component refresh equals the whole-graph reference along random anchor sequences") {
    for (seed <- 1 to 30) {
      val g = TestGraphs.random(16, 40 + seed, seed * 53 + 7)
      assertSameAsReference(g, sequence(0 until g.m, 8, new Random(seed)), s"seed=$seed")
    }
  }

  test("the component refresh equals the whole-graph reference on college, facebook and pokec") {
    for (name <- Seq("college", "facebook", "pokec")) {
      val g = GraphGen.graph(name)
      val rnd = new Random(name.hashCode)
      val bySupport = (0 until g.m).sortBy(e => (-g.support(e), e)).take(g.m / 5)
      assertSameAsReference(g, sequence(0 until g.m, 6, rnd), s"$name, any edges")
      assertSameAsReference(g, sequence(bySupport, 6, rnd), s"$name, top-support edges")
    }
  }
}
