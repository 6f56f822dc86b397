package repro.core

import java.util.concurrent.Executors
import repro.graph.CompactGraph
import repro.truss.LocalTruss
import scala.concurrent.duration.Duration
import scala.concurrent.{Await, ExecutionContext, Future}

/** A check of the follower kernel that shares none of its code. By Lemma 1,
  * anchoring `x` raises every follower's trussness by exactly 1 and no
  * other edge's, so `find(x).count` equals the trussness gain of anchoring
  * `x`, which [[LocalTruss.gainAround]] gets by peeling x's component again.
  * GAS ≡ BASE+ cannot stand in for this: both sides call `find`.
  */
object FollowerOracle {

  /** A mask of the `n` highest-support edges, ties to the smaller id. */
  def topSupport(g: CompactGraph, n: Int): Array[Boolean] =
    LocalTruss.anchorMask(g.m, (0 until g.m).sortBy(e => (-g.support(e), e)).take(n))

  /** Every edge `x` not in `anchors` whose follower count differs from the
    * gain of anchoring it on top of `anchors`, as (x, count, gain). The
    * edges are split into `threads` stripes, each with its own finder and
    * anchor mask.
    */
  def mismatches(g: CompactGraph, anchors: Array[Boolean], threads: Int = 1): Seq[(Int, Int, Long)] = {
    val dec = LocalTruss.decompose(g, anchors)
    val pool = Executors.newFixedThreadPool(threads)
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutorService(pool)
    try {
      val stripes = Future.traverse((0 until threads).toVector) { s =>
        Future {
          val finder = new FollowerFinder(g)
          val mask = anchors.clone()
          (s until g.m by threads).filterNot(anchors).flatMap { x =>
            val count = finder.find(dec.truss, dec.layer, x).count
            mask(x) = true
            val gain = LocalTruss.gainAround(g, dec, mask, Seq(x))
            mask(x) = false
            if (count == gain) None else Some((x, count, gain))
          }
        }
      }
      Await.result(stripes, Duration.Inf).flatten
    } finally pool.shutdown()
  }
}
