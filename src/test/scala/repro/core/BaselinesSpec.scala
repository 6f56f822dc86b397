package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.graph.GraphGen
import scala.util.Random

/** Rand / Sup / Tur random baselines: determinism, valid pools, and the
  * structural relation to the greedy result (GAS is at least as good as the
  * best random draw it is compared against... not guaranteed in theory, but
  * the greedy's first pick alone matches the best single edge, so for b=1
  * GAS >= every baseline; we assert that exact case plus sanity for b>1).
  */
class BaselinesSpec extends SparkSpec {

  test("baselines are deterministic in the seed") {
    val g = TestGraphs.random(20, 90, 83)
    val a = Baselines.rand(spark, g, b = 3, trials = 8, seed = 5)
    val b = Baselines.rand(spark, g, b = 3, trials = 8, seed = 5)
    assert(a == b)
  }

  test("more trials can only improve the reported maximum") {
    val g = TestGraphs.random(20, 90, 89)
    val few = Baselines.rand(spark, g, b = 3, trials = 4, seed = 9)
    val many = Baselines.rand(spark, g, b = 3, trials = 12, seed = 9)
    assert(many >= few)
  }

  test("gains are non-negative on random graphs") {
    val g = TestGraphs.random(18, 70, 97)
    assert(Baselines.rand(spark, g, 3, 5) >= 0)
    assert(Baselines.sup(spark, g, 3, 5) >= 0)
    assert(Baselines.tur(spark, g, 3, 5) >= 0)
  }

  test("GAS b=1 beats or ties every baseline (greedy first pick is optimal)") {
    for (seed <- Seq(3, 7)) {
      val g = TestGraphs.random(16, 60, seed * 101)
      val gas = Greedy.gas(spark, g, 1).gain
      assert(gas >= Baselines.rand(spark, g, 1, 10, seed))
      assert(gas >= Baselines.sup(spark, g, 1, 10, seed))
      assert(gas >= Baselines.tur(spark, g, 1, 10, seed))
    }
  }

  test("zero trials is rejected with a message naming the argument") {
    val g = TestGraphs.random(12, 30, 7)
    for (run <- Seq[() => Long](() => Baselines.rand(spark, g, 2, 0), () => Baselines.sup(spark, g, 2, 0),
                                () => Baselines.tur(spark, g, 2, 0))) {
      val e = intercept[IllegalArgumentException](run())
      assert(e.getMessage.contains("trials"), e.getMessage)
    }
  }

  test("a negative b is rejected with a message naming it; b = 0 gains nothing") {
    val g = TestGraphs.random(12, 30, 7)
    for (run <- Seq[Int => Long](Baselines.rand(spark, g, _, 3), Baselines.sup(spark, g, _, 3),
                                 Baselines.tur(spark, g, _, 3))) {
      val e = intercept[IllegalArgumentException](run(-1))
      assert(e.getMessage.contains("b must be non-negative"), e.getMessage)
      assert(run(0) == 0)
    }
  }

  test("clique graphs: all baselines report zero gain") {
    val g = TestGraphs.clique(6)
    assert(Baselines.rand(spark, g, 2, 5) == 0)
    assert(Baselines.sup(spark, g, 2, 5) == 0)
    assert(Baselines.tur(spark, g, 2, 5) == 0)
  }

  test("Rand, Sup and Tur equal a Spark-free recomputation of the same seeded trials") {
    val cases =
      (1 to 6).map(seed => (s"random seed=$seed", TestGraphs.random(24, 90, seed * 37 + 1), 1 + seed % 4, 5, seed.toLong)) :+
        (("college", GraphGen.graph("college"), 5, 4, 3L))
    val got = for ((name, g, b, trials, seed) <- cases) yield {
      val want = (ReferenceBaselines.rand(g, b, trials, seed), ReferenceBaselines.sup(g, b, trials, seed),
                  ReferenceBaselines.tur(g, b, trials, seed))
      val have = (Baselines.rand(spark, g, b, trials, seed), Baselines.sup(spark, g, b, trials, seed),
                  Baselines.tur(spark, g, b, trials, seed))
      assert(have == want, s"$name b=$b trials=$trials")
      have
    }
    // the draws must reach positive gains, or equal zeros would show nothing
    assert(got.count(r => r._1 > 0 || r._2 > 0 || r._3 > 0) >= 3, got.toString)
  }

  test("pick draws what shuffling the boxed pool and taking b drew") {
    for (len <- Seq(0, 1, 2, 5, 37, 400); b <- Seq(0, 1, 3, 20, len, len + 5); seed <- 1 to 25) {
      val pool = Array.tabulate(len)(i => i * 7 + 3)
      val want = new Random(seed).shuffle(pool.toVector).take(b)
      assert(Baselines.pick(pool, b, new Random(seed)).toSeq == want, s"len=$len b=$b seed=$seed")
    }
  }

  test("topFraction equals sorting by (-score, edge id), ties included") {
    for (seed <- 1 to 20; m <- Seq(0, 1, 4, 50, 333)) {
      val rnd = new Random(seed)
      val score = Array.fill(m)(rnd.nextInt(6)) // few values: many ties
      val k = math.max(1, (m * 0.2).toInt)
      val want = (0 until m).sortBy(e => (-score(e), e)).take(k)
      assert(Baselines.topFraction(score).toSeq == want, s"seed=$seed m=$m")
    }
  }
}
