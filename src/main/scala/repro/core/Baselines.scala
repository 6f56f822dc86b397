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
  def maxGainOverTrials(spark: SparkSession, g: CompactGraph, pool: Array[Int],
                        b: Int, trials: Int, seed: Long): Long = {
    require(trials > 0, s"trials must be positive, got $trials")
    import spark.implicits._
    Using.resource(new Sweep(spark, g)) { sweep =>
      sweep.run((LocalTruss.decompose(g), pool), 0 until trials) { case (graph, (base, pool)) =>
        trial =>
          val rnd = new Random(seed * 1000003L + trial)
          val picked = rnd.shuffle(pool.toVector).take(math.min(b, pool.length))
          LocalTruss.trussGain(graph, base, LocalTruss.anchorMask(graph.m, picked))
      }.max
    }
  }

  def rand(spark: SparkSession, g: CompactGraph, b: Int, trials: Int, seed: Long = 7L): Long =
    maxGainOverTrials(spark, g, (0 until g.m).toArray, b, trials, seed)

  def sup(spark: SparkSession, g: CompactGraph, b: Int, trials: Int, seed: Long = 11L): Long =
    maxGainOverTrials(spark, g, topFraction(g, (0 until g.m).map(g.support).toArray), b, trials, seed)

  def tur(spark: SparkSession, g: CompactGraph, b: Int, trials: Int, seed: Long = 13L): Long = {
    val routes = Greedy.routeSizes(spark, g)
    maxGainOverTrials(spark, g, topFraction(g, routes), b, trials, seed)
  }

  /** Edge ids in the top 20% by `score` (at least b-sized pools in practice;
    * ties broken by edge id for determinism).
    */
  private def topFraction(g: CompactGraph, score: Array[Int], frac: Double = 0.2): Array[Int] = {
    val k = math.max(1, (g.m * frac).toInt)
    (0 until g.m).sortBy(e => (-score(e), e)).take(k).toArray
  }
}
