package repro.core

import org.apache.spark.sql.SparkSession
import repro.graph.CompactGraph
import repro.truss.LocalTruss
import scala.util.{Random, Using}

/** The paper's random comparison baselines (Section IV-A):
  *
  *  - **Rand**: b anchors uniformly from all edges;
  *  - **Sup**:  b anchors uniformly from the top-20% edges by support;
  *  - **Tur**:  b anchors uniformly from the top-20% edges by upward-route
  *              size (round-one route size from Algorithm 3).
  *
  * Each baseline runs `trials` independent draws and reports the *maximum*
  * trussness gain achieved, like the paper (which uses 2000 draws; we use a
  * smaller, Spark-parallelized count — see DESIGN.md §3). Every trial is an
  * exact anchored truss decomposition over the broadcast graph.
  */
object Baselines {

  /** Max trussness gain over `trials` random b-subsets of `pool`. */
  private def maxGainOverTrials(spark: SparkSession, g: CompactGraph, pool: Array[Int],
                                b: Int, trials: Int, seed: Long): Long =
    maxGain(spark, g, b, trials, seed)((_, _) => pool)

  def rand(spark: SparkSession, g: CompactGraph, b: Int, trials: Int, seed: Long = 7L): Long =
    maxGainOverTrials(spark, g, Array.range(0, g.m), b, trials, seed)

  def sup(spark: SparkSession, g: CompactGraph, b: Int, trials: Int, seed: Long = 11L): Long =
    maxGainOverTrials(spark, g, topFraction(Array.tabulate(g.m)(g.support)), b, trials, seed)

  /** The route sizes and the trials share one sweep and one decomposition. */
  def tur(spark: SparkSession, g: CompactGraph, b: Int, trials: Int, seed: Long = 13L): Long =
    maxGain(spark, g, b, trials, seed)((sweep, base) => topFraction(Greedy.routeSizes(spark, sweep, g, base)))

  /** Max trussness gain over `trials` random b-subsets of the pool that
    * `poolOf` makes from the open sweep and the unanchored decomposition
    * `base`. Each task zeroes one mask and toggles each trial's picks in
    * it: `base` anchors nothing, so every pick is an anchor new to it and
    * [[LocalTruss.gainAround]] needs no scan of the mask.
    */
  private def maxGain(spark: SparkSession, g: CompactGraph, b: Int, trials: Int, seed: Long)
                     (poolOf: (Sweep, LocalTruss.Result) => Array[Int]): Long = {
    require(b >= 0, s"b must be non-negative, got $b")
    require(trials > 0, s"trials must be positive, got $trials")
    import spark.implicits._
    Using.resource(new Sweep(spark, g)) { sweep =>
      val base = LocalTruss.decompose(g)
      sweep.run((base, poolOf(sweep, base)), 0 until trials) { case (graph, (base, pool)) =>
        val mask = new Array[Boolean](graph.m)
        trial => {
          val picked = pick(pool, b, new Random(seed * 1000003L + trial))
          picked.foreach(mask(_) = true)
          val gain = LocalTruss.gainAround(graph, base, mask, picked)
          picked.foreach(mask(_) = false)
          gain
        }
      }.max
    }
  }

  /** The first min(b, pool.length) elements of
    * `rnd.shuffle(pool.toVector)`: the same Fisher–Yates swaps, run on an
    * unboxed copy of the pool.
    */
  private[core] def pick(pool: Array[Int], b: Int, rnd: Random): Array[Int] = {
    val buf = pool.clone()
    var n = buf.length
    while (n >= 2) {
      val k = rnd.nextInt(n)
      val t = buf(n - 1); buf(n - 1) = buf(k); buf(k) = t
      n -= 1
    }
    java.util.Arrays.copyOf(buf, math.min(b, buf.length))
  }

  /** Edge ids in the top 20% by `score` (non-negative counts), ties broken
    * by edge id for determinism: one sort of `(Int.MaxValue - score) << 32 | e`.
    */
  private[core] def topFraction(score: Array[Int], frac: Double = 0.2): Array[Int] = {
    val m = score.length
    val keys = new Array[Long](m)
    var e = 0
    while (e < m) { keys(e) = ((Int.MaxValue - score(e)).toLong << 32) | e; e += 1 }
    java.util.Arrays.sort(keys)
    val top = new Array[Int](math.min(m, math.max(1, (m * frac).toInt)))
    var i = 0
    while (i < top.length) { top(i) = keys(i).toInt; i += 1 }
    top
  }
}
