package repro.core

import org.apache.spark.sql.SparkSession
import repro.graph.CompactGraph
import repro.truss.LocalTruss
import scala.util.Using

/** The Exact algorithm (Exp-2): exhaustively evaluate every b-subset of
  * edges and return the optimum trussness gain. Exponential — only usable
  * at the paper's Exp-2 scale (extracted subgraphs of 150-250 edges,
  * b ≤ 3). Subset evaluation is distributed: each sweep item is a smallest
  * edge, whose task enumerates and scores every subset starting with it by
  * exact anchored decompositions over the broadcast graph. A budget above
  * the edge count anchors every edge, as the greedy does.
  */
object Exact {

  final case class Result(anchors: Seq[Int], gain: Long, combosTried: Long)

  /** Best first: max gain, then the smallest id sequence as a string. */
  private def rank(ids: Array[Int], gain: Long): (Long, String) = (-gain, ids.toSeq.toString)

  def run(spark: SparkSession, g: CompactGraph, b: Int): Result = {
    require(b >= 0, s"b must be non-negative, got $b")
    val k = math.min(b, g.m)
    import spark.implicits._
    if (k == 0) Result(Nil, 0L, 1L) // the empty set is the only subset
    else Using.resource(new Sweep(spark, g)) { sweep =>
      val best = sweep.run(LocalTruss.decompose(g), 0 to g.m - k) { (graph, base) => first =>
        var tried = 0L
        val (ids, gain) = (first + 1 until graph.m).combinations(k - 1).map { rest =>
          tried += 1
          val ids = (first +: rest).toArray
          (ids, LocalTruss.trussGain(graph, base, LocalTruss.anchorMask(graph.m, ids)))
        }.minBy { case (ids, gain) => rank(ids, gain) }
        (ids, gain, tried)
      }
      val (ids, gain, _) = best.minBy { case (ids, gain, _) => rank(ids, gain) }
      Result(ids.toSeq, gain, best.iterator.map(_._3).sum)
    }
  }
}
