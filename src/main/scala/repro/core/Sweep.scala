package repro.core

import org.apache.spark.sql.{Encoder, SparkSession}
import repro.graph.CompactGraph
import scala.reflect.ClassTag

/** The one Spark job shape behind every bulk-parallel loop (the greedy
  * candidate sweeps, route sizes, random-baseline trials and Exact's
  * subsets): the graph is broadcast once per sweep; each [[run]] broadcasts
  * its per-job context, ships the items as a `Dataset`, sets each task up
  * once (e.g. one [[FollowerFinder]]) and maps its items, collects, and
  * destroys the context broadcast. [[close]] destroys the graph broadcast.
  */
final class Sweep(spark: SparkSession, g: CompactGraph) extends AutoCloseable {
  private val graphB = spark.sparkContext.broadcast(g)

  /** `task(graph, ctx)` runs once per Spark task and returns the per-item
    * function. Results come back in no particular order; no job runs when
    * `items` is empty.
    */
  def run[C: ClassTag, I: Encoder, O: Encoder: ClassTag](ctx: C, items: Seq[I])
                                                        (task: (CompactGraph, C) => I => O): Array[O] =
    if (items.isEmpty) Array.empty[O]
    else {
      val sc = spark.sparkContext
      val gB = graphB // a local, so the task closure does not capture this Sweep
      val ctxB = sc.broadcast(ctx)
      try spark.createDataset(items)
        .repartition(sc.defaultParallelism)
        .mapPartitions(it => it.map(task(gB.value, ctxB.value)))
        .collect()
      finally ctxB.destroy()
    }

  def close(): Unit = graphB.destroy()
}
