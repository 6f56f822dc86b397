package repro.graph

import org.apache.spark.sql.{DataFrame, Row, SparkSession}

/** Immutable CSR representation of an undirected simple graph.
  *
  * Edges are canonical (`u < v`) and densely numbered `0 until m`; vertices
  * are densely numbered `0 until n`. For every vertex the neighbor list is
  * sorted by neighbor id and carries the incident edge id, so triangle
  * enumeration for an edge `(u,v)` is a linear merge-intersection of two
  * sorted runs.
  *
  * The structure is serializable and small (5 int arrays), so it is broadcast
  * to executors for the bulk-parallel follower computations.
  *
  * @param n      number of vertices
  * @param m      number of edges
  * @param edgeU  smaller endpoint of edge e
  * @param edgeV  larger endpoint of edge e
  * @param adjOff CSR offsets, length n+1
  * @param adjV   neighbor vertex ids, sorted per vertex, length 2m
  * @param adjE   edge id of each (vertex, neighbor) slot, length 2m
  */
final class CompactGraph(
    val n: Int,
    val m: Int,
    val edgeU: Array[Int],
    val edgeV: Array[Int],
    val adjOff: Array[Int],
    val adjV: Array[Int],
    val adjE: Array[Int],
) extends Serializable {

  /** Degree of vertex u. */
  def degree(u: Int): Int = adjOff(u + 1) - adjOff(u)

  /** Endpoints of edge e as a pair (u, v) with u < v. */
  def endpoints(e: Int): (Int, Int) = (edgeU(e), edgeV(e))

  /** Visit every triangle containing edge `e`: for each common neighbor `w`
    * of the endpoints, invoke `f(e1, e2)` with the ids of the two co-edges
    * `(u,w)` and `(v,w)`. Runs in O(deg(u)+deg(v)).
    */
  def foreachTriangle(e: Int)(f: (Int, Int) => Unit): Unit = {
    val u = edgeU(e); val v = edgeV(e)
    var i = adjOff(u); var j = adjOff(v)
    val iEnd = adjOff(u + 1); val jEnd = adjOff(v + 1)
    while (i < iEnd && j < jEnd) {
      val a = adjV(i); val b = adjV(j)
      if (a == b) { f(adjE(i), adjE(j)); i += 1; j += 1 }
      else if (a < b) i += 1
      else j += 1
    }
  }

  /** Support (triangle count) of edge e in the full graph. */
  def support(e: Int): Int = {
    var s = 0
    foreachTriangle(e)((_, _) => s += 1)
    s
  }

  /** All edge ids incident to vertex u. */
  def incidentEdges(u: Int): Seq[Int] =
    (adjOff(u) until adjOff(u + 1)).map(adjE)
}

object CompactGraph {

  /** Build from a raw (possibly duplicated / self-looped / unordered) edge
    * list. Vertex ids are kept as given and must be >= 0 (a negative id is
    * rejected); the vertex count is `maxId + 1`. Edge ids are assigned in
    * sorted (u,v) order so they are deterministic for a given edge set.
    */
  def fromEdges(raw: Iterable[(Int, Int)]): CompactGraph = {
    val canon = raw.iterator
      .filter { case (a, b) =>
        require(a >= 0 && b >= 0, s"negative vertex id ${math.min(a, b)} in edge ($a, $b)")
        a != b
      }
      .map { case (a, b) => if (a < b) (a, b) else (b, a) }
      .toArray
      .distinct
      .sorted
    val m = canon.length
    val n = if (m == 0 && raw.isEmpty) 0
            else (canon.iterator.map(_._2) ++ raw.iterator.flatMap(t => Iterator(t._1, t._2))).max + 1
    val edgeU = new Array[Int](m)
    val edgeV = new Array[Int](m)
    var e = 0
    while (e < m) { edgeU(e) = canon(e)._1; edgeV(e) = canon(e)._2; e += 1 }
    val deg = new Array[Int](n)
    e = 0
    while (e < m) { deg(edgeU(e)) += 1; deg(edgeV(e)) += 1; e += 1 }
    val adjOff = new Array[Int](n + 1)
    var u = 0
    while (u < n) { adjOff(u + 1) = adjOff(u) + deg(u); u += 1 }
    val cursor = java.util.Arrays.copyOf(adjOff, n)
    val adjV = new Array[Int](2 * m)
    val adjE = new Array[Int](2 * m)
    // canon is sorted by (u,v): filling u-slots in order keeps each u's run
    // sorted by neighbor; v-slots get neighbors u in increasing u order but
    // interleaved with later v-neighbors, so sort each run at the end.
    e = 0
    while (e < m) {
      val a = edgeU(e); val b = edgeV(e)
      adjV(cursor(a)) = b; adjE(cursor(a)) = e; cursor(a) += 1
      adjV(cursor(b)) = a; adjE(cursor(b)) = e; cursor(b) += 1
      e += 1
    }
    u = 0
    while (u < n) {
      sortRun(adjV, adjE, adjOff(u), adjOff(u + 1))
      u += 1
    }
    new CompactGraph(n, m, edgeU, edgeV, adjOff, adjV, adjE)
  }

  /** Collect a canonical edge DataFrame (columns `src`, `dst`) to the driver
    * and build a CompactGraph. Intended for graphs that fit the driver (all
    * bench stand-ins do); the distributed path is `GraphOps`/`SparkTruss`.
    */
  def fromDataFrame(df: DataFrame): CompactGraph = {
    val edges = df.select("src", "dst").collect().map {
      case Row(a: Int, b: Int)   => (a, b)
      case Row(a: Long, b: Long) => (a.toInt, b.toInt)
      case r                     => (r.get(0).toString.toInt, r.get(1).toString.toInt)
    }
    fromEdges(edges)
  }

  /** Export to a canonical edge DataFrame with columns (edgeId, src, dst). */
  def toDataFrame(g: CompactGraph, spark: SparkSession): DataFrame = {
    import spark.implicits._
    (0 until g.m).map(e => (e, g.edgeU(e), g.edgeV(e))).toDF("edgeId", "src", "dst")
  }

  /** Insertion sort of the (adjV, adjE) parallel slice [from, until) by adjV.
    * Runs are nearly sorted already (u-side fully sorted), so this is cheap.
    */
  private def sortRun(vs: Array[Int], es: Array[Int], from: Int, until: Int): Unit = {
    var i = from + 1
    while (i < until) {
      val v = vs(i); val e = es(i)
      var j = i - 1
      while (j >= from && vs(j) > v) { vs(j + 1) = vs(j); es(j + 1) = es(j); j -= 1 }
      vs(j + 1) = v; es(j + 1) = e
      i += 1
    }
  }
}
