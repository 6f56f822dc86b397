package repro.core

import repro.graph.CompactGraph
import repro.truss.LocalTruss
import scala.util.Random

/** Rand, Sup and Tur recomputed on the driver, without Spark: the test
  * reference for [[Baselines]]. Each trial shuffles the boxed pool with
  * `new Random(seed * 1000003L + trial)` and takes b edges, then scores them
  * with `trussGain` over a fresh anchor mask. Tur's pool ranks the route
  * sizes that `FollowerFinder.find` gives for every one of the m edges.
  */
object ReferenceBaselines {

  def maxGain(g: CompactGraph, pool: Array[Int], b: Int, trials: Int, seed: Long): Long = {
    val base = LocalTruss.decompose(g)
    (0 until trials).map { trial =>
      val picked = new Random(seed * 1000003L + trial).shuffle(pool.toVector).take(b)
      LocalTruss.trussGain(g, base, LocalTruss.anchorMask(g.m, picked))
    }.max
  }

  /** Round-one route size of every edge, one `find` per edge. */
  def routeSizes(g: CompactGraph): Array[Int] = {
    val dec = LocalTruss.decompose(g)
    val finder = new FollowerFinder(g)
    Array.tabulate(g.m)(e => finder.find(dec.truss, dec.layer, e).routeSize)
  }

  /** The top 20% of the edges by `score` (at least one), ties to the
    * smaller edge id.
    */
  def top(score: Array[Int]): Array[Int] =
    score.indices.sortBy(e => (-score(e), e)).take(math.max(1, (score.length * 0.2).toInt)).toArray

  def rand(g: CompactGraph, b: Int, trials: Int, seed: Long): Long =
    maxGain(g, Array.range(0, g.m), b, trials, seed)

  def sup(g: CompactGraph, b: Int, trials: Int, seed: Long): Long =
    maxGain(g, top(Array.tabulate(g.m)(g.support)), b, trials, seed)

  def tur(g: CompactGraph, b: Int, trials: Int, seed: Long): Long =
    maxGain(g, top(routeSizes(g)), b, trials, seed)
}
