package repro.bench

import repro.SparkSpec
import repro.core.Greedy
import repro.graph.GraphGen

/** BASE against BASE+ and GAS on the pokec stand-in at b=20, generator seeds
  * 3 and 7: the three must pick the same anchors with the same marginals
  * and TG, and BASE's and BASE+'s wall times are printed. Pokec's components
  * are small (none above 579 edges), so BASE, which peels each candidate's
  * component, is affordable here; on facebook one component holds most of
  * the edges and BASE stays slow, as in the paper.
  */
class BaseBench extends SparkSpec {

  private val b = 20

  private def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e6)
  }

  test("BASE equals BASE+ and GAS on pokec at b=20, seeds 3 and 7") {
    val graphs = Seq(3L, 7L).map(seed => seed -> GraphGen.graph(GraphGen.preset("pokec").copy(seed = seed)))
    // untimed: the first BASE call in a JVM takes about three times as long
    // as the next ones (JIT and Spark warm-up)
    Greedy.base(spark, graphs.head._2, 1)
    val rows = for ((seed, g) <- graphs) yield {
      val (rb, baseMs) = timed(Greedy.base(spark, g, b))
      val (rp, plusMs) = timed(Greedy.basePlus(spark, g, b))
      val rg = Greedy.gas(spark, g, b)
      for ((name, r) <- Seq("BASE" -> rb, "GAS" -> rg)) {
        assert(r.anchors == rp.anchors, s"seed=$seed $name")
        assert(r.rounds.map(_.marginalGain) == rp.rounds.map(_.marginalGain), s"seed=$seed $name")
        assert(r.gain == rp.gain, s"seed=$seed $name")
      }
      (seed, g.m, rp.anchors, rp.gain, baseMs, plusMs)
    }
    println(s"\n=== BASE vs BASE+ on pokec, b=$b, wall ms ===")
    println(f"${"seed"}%4s ${"|E|"}%7s ${"TG"}%4s ${"BASE"}%9s ${"BASE+"}%9s  anchors")
    rows.foreach { case (seed, m, anchors, gain, baseMs, plusMs) =>
      println(f"$seed%4d $m%7d $gain%4d $baseMs%9.1f $plusMs%9.1f  ${anchors.mkString(",")}")
    }
  }
}
