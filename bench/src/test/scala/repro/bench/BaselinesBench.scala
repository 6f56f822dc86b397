package repro.bench

import repro.SparkSpec
import repro.core.{Baselines, ReferenceBaselines}
import repro.graph.GraphGen

/** Rand, Sup and Tur on the pokec stand-in at b=20 with 100 trials,
  * generator seeds 3 and 7: each must equal the same seeded trials
  * recomputed on the driver without Spark (`ReferenceBaselines`), and the
  * wall time of each is printed.
  */
class BaselinesBench extends SparkSpec {

  private val b = 20
  private val trials = 100

  private def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e6)
  }

  test("Rand, Sup and Tur equal the Spark-free recomputation on pokec at b=20, 100 trials") {
    val graphs = Seq(3L, 7L).map(seed => seed -> GraphGen.graph(GraphGen.preset("pokec").copy(seed = seed)))
    // untimed: the first calls in a JVM pay JIT and Spark warm-up
    Baselines.tur(spark, graphs.head._2, 2, 4)
    val rows = for ((seed, g) <- graphs) yield {
      val (rand, randMs) = timed(Baselines.rand(spark, g, b, trials, seed))
      val (sup, supMs) = timed(Baselines.sup(spark, g, b, trials, seed))
      val (tur, turMs) = timed(Baselines.tur(spark, g, b, trials, seed))
      assert(rand == ReferenceBaselines.rand(g, b, trials, seed), s"seed=$seed Rand")
      assert(sup == ReferenceBaselines.sup(g, b, trials, seed), s"seed=$seed Sup")
      assert(tur == ReferenceBaselines.tur(g, b, trials, seed), s"seed=$seed Tur")
      (seed, g.m, rand, sup, tur, randMs, supMs, turMs)
    }
    println(s"\n=== Rand / Sup / Tur on pokec, b=$b, $trials trials: max TG, wall ms ===")
    println(f"${"seed"}%4s ${"|E|"}%7s ${"Rand"}%5s ${"Sup"}%5s ${"Tur"}%5s ${"Rand ms"}%9s ${"Sup ms"}%9s ${"Tur ms"}%9s")
    rows.foreach { case (seed, m, rand, sup, tur, randMs, supMs, turMs) =>
      println(f"$seed%4d $m%7d $rand%5d $sup%5d $tur%5d $randMs%9.1f $supMs%9.1f $turMs%9.1f")
    }
  }
}
