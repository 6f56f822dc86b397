package repro.core

import org.apache.spark.sql.SparkSession
import repro.graph.CompactGraph
import repro.truss.LocalTruss
import scala.util.Using

/** The Exact algorithm (Exp-2): exhaustively evaluate every b-subset of
  * edges and return the optimum trussness gain. Exponential — only usable
  * at the paper's Exp-2 scale (extracted subgraphs of 150-250 edges,
  * b ≤ 3). Subset evaluation is distributed: each sweep item is a smallest
  * edge, whose task enumerates every subset starting with it and scores it
  * by an exact anchored decomposition of the subset's components over the
  * broadcast graph, on one anchor mask per task that it sets and clears
  * around each subset. A budget above the edge count anchors every edge, as
  * the greedy does.
  */
object Exact {

  final case class Result(anchors: Seq[Int], gain: Long, combosTried: Long)

  /** Best first: max gain, then the numerically smallest id sequence, as
    * the greedy breaks ties.
    */
  private val bestFirst: Ordering[(Array[Int], Long)] = (a, b) => {
    val byGain = java.lang.Long.compare(b._2, a._2)
    if (byGain != 0) byGain else java.util.Arrays.compare(a._1, b._1)
  }

  def run(spark: SparkSession, g: CompactGraph, b: Int): Result = {
    require(b >= 0, s"b must be non-negative, got $b")
    val k = math.min(b, g.m)
    import spark.implicits._
    if (k == 0) Result(Nil, 0L, 1L) // the empty set is the only subset
    else Using.resource(new Sweep(spark, g)) { sweep =>
      val best = sweep.run(LocalTruss.decompose(g), 0 to g.m - k) { (graph, base) =>
        val mask = new Array[Boolean](graph.m)
        first => {
          var tried = 0L
          val (ids, gain) = (first + 1 until graph.m).combinations(k - 1).map { rest =>
            tried += 1
            val ids = (first +: rest).toArray
            ids.foreach(mask(_) = true)
            val gain = LocalTruss.gainAround(graph, base, mask, ids)
            ids.foreach(mask(_) = false)
            (ids, gain)
          }.min(bestFirst)
          (ids, gain, tried)
        }
      }
      val (ids, gain, _) = best.minBy { case (ids, gain, _) => (ids, gain) }(bestFirst)
      Result(ids.toSeq, gain, best.iterator.map(_._3).sum)
    }
  }
}
