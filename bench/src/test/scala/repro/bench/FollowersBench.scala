package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{FollowerFinder, FollowerOracle}
import repro.graph.{CompactGraph, GraphGen}
import repro.truss.LocalTruss

/** The follower kernel against its Lemma 1 oracle at stand-in scale: on
  * college and on the facebook and pokec stand-ins (generator seeds 3 and
  * 7), every non-anchor edge's `find` count must equal the gain of
  * anchoring it, with no anchors and with the 5 highest-support edges
  * anchored. Also prints the single-thread time of one `find` pass over
  * every edge, the median of 7 passes after a warm-up: no Spark job is
  * involved, so the kernel's own cost shows.
  */
class FollowersBench extends AnyFunSuite {

  private val threads = math.min(4, Runtime.getRuntime.availableProcessors)

  private val graphs: Seq[(String, CompactGraph)] =
    ("college", GraphGen.graph("college")) +:
      (for (name <- Seq("facebook", "pokec"); seed <- Seq(3L, 7L))
        yield s"$name/$seed" -> GraphGen.graph(GraphGen.preset(name).copy(seed = seed)))

  /** Median ms of one single-thread `find` pass over every non-anchor edge. */
  private def passMs(g: CompactGraph, anchors: Array[Boolean]): Double = {
    val dec = LocalTruss.decompose(g, anchors)
    val finder = new FollowerFinder(g)
    def pass(): Double = {
      val t0 = System.nanoTime()
      var e = 0
      while (e < g.m) {
        if (!anchors(e)) finder.find(dec.truss, dec.layer, e)
        e += 1
      }
      (System.nanoTime() - t0) / 1e6
    }
    pass() // warm-up
    val ms = Array.fill(7)(pass()).sorted
    ms(3)
  }

  test("find's follower count equals the anchored gain on every edge of college, facebook and pokec") {
    val rows = for ((name, g) <- graphs; (setting, anchors) <- Seq(
                      "none" -> new Array[Boolean](g.m), "top-5" -> FollowerOracle.topSupport(g, 5))) yield {
      val bad = FollowerOracle.mismatches(g, anchors, threads)
      assert(bad.isEmpty, s"$name anchors=$setting: (x, count, gain) ${bad.take(10).mkString(", ")}")
      (name, g.m, setting, bad.size, passMs(g, anchors))
    }
    println("\n=== FollowerFinder against the anchored gain; one single-thread find pass, median of 7 ===")
    println(f"${"graph"}%-12s ${"|E|"}%7s ${"anchors"}%7s ${"mismatches"}%10s ${"pass ms"}%9s")
    rows.foreach { case (name, m, setting, bad, ms) =>
      println(f"$name%-12s $m%7d $setting%7s $bad%10d $ms%9.1f")
    }
  }
}
