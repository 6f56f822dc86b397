package repro.graph

import scala.collection.mutable

/** Immutable CSR representation of an undirected simple graph.
  *
  * Edges are canonical (`u < v`) and densely numbered `0 until m`; vertices
  * are densely numbered `0 until n`. For every vertex the neighbor list is
  * sorted by neighbor id and carries the incident edge id.
  *
  * Triangles are read from a per-edge triangle index, built on first
  * triangle access by one merge-intersection of the two sorted adjacency
  * runs of every edge and kept for the life of the object. An edge's
  * triangles are listed by ascending third vertex `w`; within a sorted run
  * the edge ids ascend too, so each co-edge id is stored as a varint step
  * from the previous triangle's: about 2.4 B per co-edge pair on the
  * facebook stand-in, against 8 B as two ints.
  *
  * Over the triangle index sits a component index: the triangle-connected
  * components of the edges that lie in some triangle, as a CSR, components
  * numbered by their smallest edge id, edge ids ascending inside each, plus
  * each edge's slot in that list. An edge in no triangle is in no listed
  * component: nothing peels it but itself, and on sparse graphs such edges
  * are most of the edges (54k of the pokec stand-in's 70k), so leaving them
  * out more than halves the index there. Anchoring an edge moves supports
  * only through triangles, so only its own component can change trussness
  * or layers. This class is the one place that maps edges to components:
  * [[componentEdges]] gives the peel, the GAS refresh and the tree rebuild
  * the components an anchor can reach.
  *
  * The structure is serializable and small (5 int arrays), so it is broadcast
  * to executors for the bulk-parallel follower computations. Both indexes
  * are transient: they are not serialized, and a deserialized copy builds
  * its own on first use.
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

  @transient private lazy val triangles: CompactGraph.Triangles = CompactGraph.indexTriangles(this)

  /** Triangle counts as offsets, length m+1: edge e has
    * `triOff(e+1) - triOff(e)` triangles.
    */
  private[graph] def triOff: Array[Int] = triangles.off

  /** Visit every triangle containing edge `e`: for each common neighbor `w`
    * of the endpoints, in ascending order of `w`, invoke `f(e1, e2)` with the
    * ids of the two co-edges `(u,w)` and `(v,w)`. Runs in O(sup(e)).
    */
  def foreachTriangle(e: Int)(f: (Int, Int) => Unit): Unit = {
    val t = triangles
    val code = t.code
    var p = t.codeOff(e)
    val end = t.codeOff(e + 1)
    var e1 = 0
    var e2 = 0
    while (p < end) {
      var b = 0; var s = 0
      do { b = code(p); p += 1; e1 += (b & 0x7f) << s; s += 7 } while (b < 0)
      s = 0
      do { b = code(p); p += 1; e2 += (b & 0x7f) << s; s += 7 } while (b < 0)
      f(e1, e2)
    }
  }

  /** Support (triangle count) of edge e in the full graph. */
  def support(e: Int): Int = triOff(e + 1) - triOff(e)

  @transient private lazy val components: CompactGraph.Components = CompactGraph.indexComponents(this)

  /** Component offsets, length C+1: component c holds the edges
    * `compEdges(compOff(c) until compOff(c+1))`.
    */
  private[repro] def compOff: Array[Int] = components.off

  /** The edges of every component, component after component, each
    * component's edge ids ascending: every edge that lies in a triangle.
    */
  private[repro] def compEdges: Array[Int] = components.edges

  /** Slot of each edge in [[compEdges]], -1 for an edge in no triangle;
    * length m.
    */
  private[repro] def compSlot: Array[Int] = components.slot

  /** The triangle-connected component holding edge e, -1 for an edge in no
    * triangle: a binary search of its slot in [[compOff]], O(log C).
    */
  private[repro] def componentOf(e: Int): Int = {
    val s = components.slot(e)
    if (s < 0) -1
    else {
      val i = java.util.Arrays.binarySearch(components.off, s)
      if (i >= 0) i else -i - 2
    }
  }

  /** The edges of the triangle-connected components that hold `edges`:
    * each component once and whole, its edges in [[compEdges]] order,
    * components in the order `edges` first reaches them. An edge in no
    * triangle stands alone, as the one edge of its own component.
    */
  private[repro] def componentEdges(edges: Iterable[Int]): Array[Int] = {
    val seen = mutable.HashSet.empty[Int] // component ids, and -1-e for a lone edge e
    val out = mutable.ArrayBuilder.make[Int]
    edges.foreach { e =>
      val c = componentOf(e)
      if (c < 0) { if (seen.add(-1 - e)) out += e }
      else if (seen.add(c)) out.addAll(compEdges, compOff(c), compOff(c + 1) - compOff(c))
    }
    out.result()
  }
}

object CompactGraph {

  /** Build from a raw (possibly duplicated / self-looped / unordered) edge
    * list. Vertex ids are kept as given and must lie in `[0, Int.MaxValue)`
    * (anything else is rejected); the vertex count is `maxId + 1`. Edge ids
    * are assigned in sorted (u,v) order so they are deterministic for a
    * given edge set.
    */
  def fromEdges(raw: Iterable[(Int, Int)]): CompactGraph = {
    val canon = raw.iterator
      .filter { case (a, b) =>
        require(a >= 0 && b >= 0, s"negative vertex id ${math.min(a, b)} in edge ($a, $b)")
        require(a < Int.MaxValue && b < Int.MaxValue,
                s"vertex id ${Int.MaxValue} in edge ($a, $b) is too large: the vertex count maxId + 1 must fit an Int")
        a != b
      }
      .map { case (a, b) => if (a < b) (a, b) else (b, a) }
      .toArray
      .distinct
      .sorted
    val m = canon.length
    val n = if (raw.isEmpty) 0 else raw.iterator.flatMap(t => Iterator(t._1, t._2)).max + 1
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
    // canon is sorted by (u,v), so vertex x's run is filled sorted: first its
    // smaller neighbors u, ascending, from the edges (u,x) of the blocks
    // u < x, then its larger ones, ascending, from its own block (x,v).
    e = 0
    while (e < m) {
      val a = edgeU(e); val b = edgeV(e)
      adjV(cursor(a)) = b; adjE(cursor(a)) = e; cursor(a) += 1
      adjV(cursor(b)) = a; adjE(cursor(b)) = e; cursor(b) += 1
      e += 1
    }
    new CompactGraph(n, m, edgeU, edgeV, adjOff, adjV, adjE)
  }

  /** Per-edge triangle lists: edge e has `off(e+1) - off(e)` triangles,
    * coded in `code(codeOff(e) until codeOff(e+1))` as two LEB128 varints
    * per triangle: the steps of the co-edge ids `(u,w)` and `(v,w)` from the
    * previous triangle's (from 0 for the first).
    */
  private final class Triangles(val off: Array[Int], val codeOff: Array[Int], val code: Array[Byte])

  /** The triangle index of `g`: for every edge `(u,v)`, a linear
    * merge-intersection of the sorted adjacency runs of `u` and `v` codes the
    * co-edges of each common neighbor `w`. Costs O(Σ(deg(u)+deg(v))) once.
    */
  private def indexTriangles(g: CompactGraph): Triangles = {
    val off = new Array[Int](g.m + 1)
    val codeOff = new Array[Int](g.m + 1)
    var code = new Array[Byte](math.max(16, 4 * g.m))
    var len = 0
    def put(step: Int): Unit = {
      if (len + 5 > code.length) code = java.util.Arrays.copyOf(code, 2 * code.length)
      var d = step
      while (d >= 0x80) { code(len) = ((d & 0x7f) | 0x80).toByte; len += 1; d >>>= 7 }
      code(len) = d.toByte; len += 1
    }
    var e = 0
    while (e < g.m) {
      val u = g.edgeU(e); val v = g.edgeV(e)
      var i = g.adjOff(u); var j = g.adjOff(v)
      val iEnd = g.adjOff(u + 1); val jEnd = g.adjOff(v + 1)
      var last1 = 0; var last2 = 0
      var count = 0
      while (i < iEnd && j < jEnd) {
        val a = g.adjV(i); val b = g.adjV(j)
        if (a == b) {
          put(g.adjE(i) - last1); put(g.adjE(j) - last2)
          last1 = g.adjE(i); last2 = g.adjE(j); count += 1
          i += 1; j += 1
        }
        else if (a < b) i += 1
        else j += 1
      }
      off(e + 1) = off(e) + count
      codeOff(e + 1) = len
      e += 1
    }
    new Triangles(off, codeOff, java.util.Arrays.copyOf(code, len))
  }

  /** Triangle-connected components: `edges(off(c) until off(c+1))` are the
    * ascending edge ids of component c, and `slot(e)` is e's index in
    * `edges` (-1 for an edge in no triangle).
    */
  private final class Components(val off: Array[Int], val edges: Array[Int], val slot: Array[Int])

  /** The component index of `g`: one union-find pass over the triangle
    * index (each triangle joined once, from its smallest edge, onto the
    * smaller root), then a counting sort of the edges in triangles by
    * component. Costs O(T α(m) + m) once.
    */
  private def indexComponents(g: CompactGraph): Components = {
    val m = g.m
    val uf = Array.range(0, m)
    def find(e: Int): Int = {
      var r = e
      while (uf(r) != r) { uf(r) = uf(uf(r)); r = uf(r) }
      r
    }
    def union(a: Int, b: Int): Unit = {
      val ra = find(a); val rb = find(b)
      if (ra < rb) uf(rb) = ra else if (rb < ra) uf(ra) = rb
    }
    var e = 0
    while (e < m) {
      val x = e
      g.foreachTriangle(x) { (a, b) => if (x < a && x < b) { union(x, a); union(x, b) } }
      e += 1
    }
    // a root is its component's smallest edge, so numbering components at
    // their roots in ascending edge order numbers them by smallest edge
    val comp = new Array[Int](m)
    var count = 0
    var listed = 0
    e = 0
    while (e < m) {
      val r = find(e)
      comp(e) = if (g.support(e) == 0) -1 else if (r == e) { count += 1; count - 1 } else comp(r)
      if (comp(e) >= 0) listed += 1
      e += 1
    }
    val off = new Array[Int](count + 1)
    e = 0
    while (e < m) { if (comp(e) >= 0) off(comp(e) + 1) += 1; e += 1 }
    var c = 0
    while (c < count) { off(c + 1) += off(c); c += 1 }
    val edges = new Array[Int](listed)
    val slot = comp // reused: each edge's component is read before its slot is written
    val cursor = uf // no longer needed as a forest
    System.arraycopy(off, 0, cursor, 0, count)
    e = 0
    while (e < m) {
      if (comp(e) >= 0) {
        val s = cursor(comp(e)); cursor(comp(e)) += 1
        edges(s) = e; slot(e) = s
      }
      e += 1
    }
    new Components(off, edges, slot)
  }
}
