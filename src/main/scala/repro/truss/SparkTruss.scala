package repro.truss

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.graph.GraphOps
import scala.collection.mutable.ArrayBuffer

/** Distributed truss decomposition as iterative DataFrame dataflow.
  *
  * Each sweep recomputes per-edge support over the surviving edge set with
  * the oriented triangle join of [[repro.graph.GraphOps]] and peels every
  * edge below the phase threshold; `localCheckpoint` cuts the iterative plan
  * lineage. Anchored edges are never peeled (the paper's `sup = +∞`
  * abstraction).
  *
  * This is the substrate formulation for cluster-scale graphs; it is
  * cross-validated against [[LocalTruss]] (same trussness, same layers) in
  * the test suite. The greedy algorithms use the broadcast local kernel for
  * per-candidate work, as described in DESIGN.md.
  */
object SparkTruss {

  /** Decompose a canonical edge DataFrame (edgeId, src, dst).
    *
    * @return DataFrame (edgeId, truss, layer); anchored edges get
    *         truss = Int.MaxValue, layer = 0.
    */
  def decompose(spark: SparkSession, edges: DataFrame, anchorIds: Set[Int] = Set.empty): DataFrame = {
    import spark.implicits._
    val anchorsB = spark.sparkContext.broadcast(anchorIds)
    val isAnchor = udf((id: Int) => anchorsB.value.contains(id))

    var alive = edges.select("edgeId", "src", "dst").localCheckpoint()
    val removed = ArrayBuffer.empty[(Int, Int, Int)] // (edgeId, truss, layer)
    var k = 2
    var aliveNonAnchor = alive.where(!isAnchor($"edgeId")).count()
    while (aliveNonAnchor > 0) {
      var sweep = 0
      var progressed = true
      while (progressed) {
        val supported = GraphOps.support(alive).select("edgeId", "support")
        val toRemove = supported
          .where($"support" <= k - 2 && !isAnchor($"edgeId"))
          .select("edgeId")
          .as[Int]
          .collect()
        if (toRemove.isEmpty) progressed = false
        else {
          sweep += 1
          removed ++= toRemove.map(id => (id, k, sweep))
          val gone = toRemove.toSet
          val goneB = spark.sparkContext.broadcast(gone)
          val keep = udf((id: Int) => !goneB.value.contains(id))
          alive = alive.where(keep($"edgeId")).localCheckpoint()
          aliveNonAnchor -= gone.size
        }
      }
      k += 1
    }
    val anchorRows = alive.select("edgeId").as[Int].collect()
      .map(id => (id, Int.MaxValue, 0))
    (removed ++ anchorRows).toSeq.toDF("edgeId", "truss", "layer")
  }
}
