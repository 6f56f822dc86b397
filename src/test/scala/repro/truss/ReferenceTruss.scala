package repro.truss

import repro.graph.CompactGraph

/** Reference implementations for the property tests: triangle enumeration
  * by merge-intersecting the two sorted adjacency runs of an edge on every
  * call, triangle-connected components by a search over it, the anchored
  * peel of the whole graph over it with `ArrayDeque` frontiers and a full
  * rescan of all edges at each k, and a peel by sweeps that recounts every
  * support from the surviving edge list instead of decrementing it.
  * [[CompactGraph]]'s triangle and component indexes,
  * [[LocalTruss.decompose]] and [[LocalTruss.trussGain]] are checked against
  * these.
  */
object ReferenceTruss {

  /** Support of each edge in `alive` within the subgraph of the `alive`
    * edges (0 for the others), counted from the edge endpoints alone: no CSR
    * adjacency and no triangle index.
    */
  def supportWithin(g: CompactGraph, alive: Array[Boolean]): Array[Int] = {
    val nbrs = Array.fill(g.n)(Set.newBuilder[Int])
    for (e <- 0 until g.m if alive(e)) { nbrs(g.edgeU(e)) += g.edgeV(e); nbrs(g.edgeV(e)) += g.edgeU(e) }
    val sets = nbrs.map(_.result())
    Array.tabulate(g.m)(e => if (alive(e)) sets(g.edgeU(e)).count(sets(g.edgeV(e))) else 0)
  }

  /** The anchored peel as its definition states it: at phase k, each sweep
    * recounts the support of every surviving edge and removes, all at once,
    * every non-anchor whose support is at most k-2; the sweep's number is
    * the removed edges' layer. Phase k ends with the first sweep that
    * removes nothing.
    */
  def bySweeps(g: CompactGraph, anchors: Array[Boolean] = null): LocalTruss.Result = {
    val anch = if (anchors == null) new Array[Boolean](g.m) else anchors
    val alive = Array.fill(g.m)(true)
    val truss = Array.fill(g.m)(LocalTruss.AnchorTruss)
    val layer = new Array[Int](g.m)
    var kMax = 2
    var k = 2
    while ((0 until g.m).exists(e => alive(e) && !anch(e))) {
      var sweep = 0
      var gone = Seq.empty[Int]
      do {
        val sup = supportWithin(g, alive)
        gone = (0 until g.m).filter(e => alive(e) && !anch(e) && sup(e) <= k - 2)
        sweep += 1
        for (e <- gone) { alive(e) = false; truss(e) = k; layer(e) = sweep; kMax = k }
      } while (gone.nonEmpty)
      k += 1
    }
    LocalTruss.Result(truss, layer, kMax)
  }

  /** Co-edge pairs of the triangles on `e`, ascending by the third vertex. */
  def triangles(g: CompactGraph, e: Int): Seq[(Int, Int)] = {
    val out = Seq.newBuilder[(Int, Int)]
    val u = g.edgeU(e); val v = g.edgeV(e)
    var i = g.adjOff(u); var j = g.adjOff(v)
    val iEnd = g.adjOff(u + 1); val jEnd = g.adjOff(v + 1)
    while (i < iEnd && j < jEnd) {
      val a = g.adjV(i); val b = g.adjV(j)
      if (a == b) { out += ((g.adjE(i), g.adjE(j))); i += 1; j += 1 }
      else if (a < b) i += 1
      else j += 1
    }
    out.result()
  }

  /** Triangle-connected components by breadth-first search over triangle
    * adjacency: each an ascending edge list, listed by smallest edge.
    */
  def components(g: CompactGraph): Seq[Seq[Int]] = {
    val seen = new Array[Boolean](g.m)
    val comps = Seq.newBuilder[Seq[Int]]
    for (start <- 0 until g.m if !seen(start)) {
      val out = Seq.newBuilder[Int]
      val todo = new java.util.ArrayDeque[Int]()
      todo.add(start); seen(start) = true
      while (!todo.isEmpty) {
        val e = todo.poll()
        out += e
        for ((a, b) <- triangles(g, e); c <- Seq(a, b) if !seen(c)) { seen(c) = true; todo.add(c) }
      }
      comps += out.result().sorted
    }
    comps.result()
  }

  def decompose(g: CompactGraph, anchors: Array[Boolean] = null): LocalTruss.Result = {
    val m = g.m
    val anch = if (anchors == null) new Array[Boolean](m) else anchors
    val sup = Array.tabulate(m)(triangles(g, _).size)
    val alive = Array.fill(m)(true)
    val truss = new Array[Int](m)
    val layer = new Array[Int](m)
    var aliveNonAnchor = anch.count(!_)
    var kMax = 2
    var k = 2
    val scheduled = new Array[Boolean](m)
    val frontier = new java.util.ArrayDeque[Int]()
    val next = new java.util.ArrayDeque[Int]()
    while (aliveNonAnchor > 0) {
      for (i <- 0 until m if alive(i) && !anch(i) && sup(i) <= k - 2 && !scheduled(i)) {
        frontier.add(i); scheduled(i) = true
      }
      var sweep = 0
      while (!frontier.isEmpty) {
        sweep += 1
        while (!frontier.isEmpty) {
          val x = frontier.poll()
          truss(x) = k
          layer(x) = sweep
          alive(x) = false
          aliveNonAnchor -= 1
          if (k > kMax) kMax = k
          for ((e1, e2) <- triangles(g, x) if alive(e1) && alive(e2)) {
            sup(e1) -= 1
            sup(e2) -= 1
            if (!anch(e1) && sup(e1) <= k - 2 && !scheduled(e1)) { next.add(e1); scheduled(e1) = true }
            if (!anch(e2) && sup(e2) <= k - 2 && !scheduled(e2)) { next.add(e2); scheduled(e2) = true }
          }
        }
        while (!next.isEmpty) frontier.add(next.poll())
      }
      k += 1
    }
    for (e <- 0 until m if anch(e)) { truss(e) = LocalTruss.AnchorTruss; layer(e) = 0 }
    LocalTruss.Result(truss, layer, kMax)
  }
}
