package repro.graph

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import repro.{SparkSpec, TestGraphs}
import repro.core.{Greedy, TrussTree}
import repro.truss.{LocalTruss, ReferenceTruss}

/** CSR construction invariants, triangle enumeration vs brute force and vs
  * the merge-intersection reference, input validation, and the triangle
  * index, the peel, the tree and GAS on degenerate graphs.
  */
class CompactGraphSpec extends SparkSpec {

  test("canonicalization: drops self-loops, duplicates and orients u < v") {
    val g = CompactGraph.fromEdges(Seq((1, 0), (0, 1), (2, 2), (1, 2), (2, 1)))
    assert(g.m == 2)
    assert(g.endpoints(0) == (0, 1))
    assert(g.endpoints(1) == (1, 2))
  }

  test("adjacency runs are sorted and degree-consistent") {
    // canonical pairs, the same edges as a raw list with reversed pairs,
    // duplicates and self-loops, and ScalaCheck-random raw lists
    val graphs = (1 to 20).flatMap { seed =>
      val g = TestGraphs.random(15, 60, seed)
      val rnd = new scala.util.Random(seed)
      val messy = (0 until g.m).map(g.endpoints).flatMap { case (u, v) => Seq((v, u), (u, v)).take(1 + rnd.nextInt(2)) } ++
        Seq.fill(5)(rnd.nextInt(g.n)).map(v => (v, v))
      val raw = CompactGraph.fromEdges(rnd.shuffle(messy))
      assert(raw.m == g.m && raw.n == g.n && raw.edgeU.sameElements(g.edgeU) && raw.edgeV.sameElements(g.edgeV))
      Seq(s"random seed=$seed" -> g, s"raw seed=$seed" -> raw)
    } ++ (1 to 20).map { s =>
      val edges = Gen.listOfN(40, Gen.zip(Gen.choose(0, 9), Gen.choose(0, 9))).pureApply(Gen.Parameters.default, Seed(s.toLong))
      s"scalacheck seed=$s" -> CompactGraph.fromEdges(edges)
    }
    for ((name, g) <- graphs) {
      var degSum = 0
      for (u <- 0 until g.n) {
        degSum += g.degree(u)
        val run = (g.adjOff(u) until g.adjOff(u + 1)).map(g.adjV)
        assert(run == run.sorted, s"$name u=$u run=$run")
        assert(run.distinct == run)
        for (i <- g.adjOff(u) until g.adjOff(u + 1))
          assert(Set(g.edgeU(g.adjE(i)), g.edgeV(g.adjE(i))) == Set(u, g.adjV(i)), s"$name u=$u slot=$i")
      }
      assert(degSum == 2 * g.m, name)
    }
  }

  test("edge ids are assigned in sorted (u,v) order") {
    for (seed <- 1 to 10) {
      val g = TestGraphs.random(15, 60, seed * 3)
      val pairs = (0 until g.m).map(g.endpoints)
      assert(pairs == pairs.sorted)
    }
  }

  test("support equals brute-force common-neighbor count") {
    for (seed <- 1 to 20) {
      val g = TestGraphs.random(12, 45, seed * 7)
      val adj = Array.fill(g.n)(scala.collection.mutable.Set.empty[Int])
      for (e <- 0 until g.m) {
        adj(g.edgeU(e)) += g.edgeV(e); adj(g.edgeV(e)) += g.edgeU(e)
      }
      for (e <- 0 until g.m) {
        val want = (adj(g.edgeU(e)) & adj(g.edgeV(e))).size
        assert(g.support(e) == want)
      }
    }
  }

  test("foreachTriangle yields co-edges that really form a triangle") {
    for (seed <- 1 to 15) {
      val g = TestGraphs.random(12, 45, seed * 11)
      for (e <- 0 until g.m) {
        g.foreachTriangle(e) { (a, b) =>
          val vs = Set(g.edgeU(e), g.edgeV(e), g.edgeU(a), g.edgeV(a), g.edgeU(b), g.edgeV(b))
          assert(vs.size == 3, s"seed=$seed e=$e a=$a b=$b vs=$vs")
        }
      }
    }
  }

  test("triangle incidence is divisible by 3 on ScalaCheck-random edge lists") {
    val edgeGen = Gen.listOfN(40, Gen.zip(Gen.choose(0, 9), Gen.choose(0, 9)))
    for (s <- 1 to 30) {
      val edges = edgeGen.pureApply(Gen.Parameters.default, Seed(s.toLong))
      val g = CompactGraph.fromEdges(edges)
      // each triangle is counted once per member edge
      val total = (0 until g.m).map(g.support).sum
      assert(total % 3 == 0, s"seed=$s total=$total")
    }
  }

  test("incidentEdges returns each incident edge exactly once") {
    for (seed <- 1 to 10) {
      val g = TestGraphs.random(12, 40, seed * 13)
      // vertex u's adjacency run lists each edge with endpoint u once
      for (u <- 0 until g.n) {
        val run = (g.adjOff(u) until g.adjOff(u + 1)).map(g.adjE)
        assert(run.sorted == (0 until g.m).filter(e => g.edgeU(e) == u || g.edgeV(e) == u), s"seed=$seed u=$u")
      }
      val all = (0 until g.n).flatMap(u => (g.adjOff(u) until g.adjOff(u + 1)).map(g.adjE))
      assert(all.size == 2 * g.m)
      assert(all.groupBy(identity).forall(_._2.size == 2))
    }
  }

  test("empty and tiny graphs") {
    val empty = CompactGraph.fromEdges(Nil)
    assert(empty.m == 0 && empty.n == 0)
    assert(empty.triOff.sameElements(Array(0)))
    val r = LocalTruss.decompose(empty)
    assert(r.truss.isEmpty && r.layer.isEmpty && r.kMax == 2)
    val one = CompactGraph.fromEdges(Seq((0, 1)))
    assert(one.m == 1 && one.n == 2 && one.support(0) == 0)
  }

  test("a negative vertex id is rejected with a message naming it") {
    val err = intercept[IllegalArgumentException](CompactGraph.fromEdges(Seq((-1, 2), (2, 3))))
    assert(err.getMessage.contains("negative vertex id -1"), err.getMessage)
  }

  test("vertex id Int.MaxValue is rejected with a message naming it and its edge") {
    for (edges <- Seq(Seq((0, Int.MaxValue)), Seq((1, 2), (Int.MaxValue, 3)), Seq((Int.MaxValue, Int.MaxValue)))) {
      val err = intercept[IllegalArgumentException](CompactGraph.fromEdges(edges))
      val (a, b) = edges.last
      assert(err.getMessage.contains(s"vertex id ${Int.MaxValue} in edge ($a, $b)"), err.getMessage)
    }
  }

  test("empty graph: no tree nodes, GAS anchors nothing and gains 0") {
    val g = CompactGraph.fromEdges(Nil)
    assert(TrussTree.build(g, LocalTruss.decompose(g).truss).nodeOf.forall(_ == -1))
    val r = Greedy.gas(spark, g, 3)
    assert(r.anchors.isEmpty && r.gain == 0)
  }

  test("triangle-free path: GAS picks edges 0 and 1 by tie-break and gains 0") {
    val g = CompactGraph.fromEdges(Seq((0, 1), (1, 2), (2, 3), (3, 4)))
    assert((0 until g.m).forall(g.support(_) == 0))
    assert(LocalTruss.decompose(g).truss.forall(_ == 2))
    val r = Greedy.gas(spark, g, 2)
    assert(r.anchors == List(0, 1) && r.gain == 0)
  }

  test("triangle with every edge anchored: the tree has no nodes") {
    val g = TestGraphs.clique(3)
    val dec = LocalTruss.decompose(g, LocalTruss.anchorMask(g.m, 0 until g.m))
    assert(dec.truss.forall(_ == LocalTruss.AnchorTruss) && dec.layer.forall(_ == 0) && dec.kMax == 2)
    assert(TrussTree.build(g, dec.truss).nodeOf.forall(_ == -1))
  }

  private def triangleLists(g: CompactGraph): Seq[Seq[(Int, Int)]] =
    (0 until g.m).map { e =>
      val out = Seq.newBuilder[(Int, Int)]
      g.foreachTriangle(e)((a, b) => out += ((a, b)))
      out.result()
    }

  test("the triangle index yields the merge's pairs in the merge's order") {
    val graphs = (1 to 20).map(s => s"random-$s" -> TestGraphs.random(16, 60, s * 19)) ++
      Seq("college", "pokec").map(n => n -> GraphGen.graph(n)) :+
      // hub 0 with 20000 spokes; spoke 1 also meets spokes 2, 150 and 20000,
      // so the co-edges (0,w) of (0,1) step by 1, 148 and 19850 edge ids:
      // varints of one, two and three bytes
      "hub" -> CompactGraph.fromEdges((1 to 20000).map(i => (0, i)) ++ Seq((1, 2), (1, 150), (1, 20000)))
    for ((name, g) <- graphs) {
      val want = (0 until g.m).map(ReferenceTruss.triangles(g, _))
      assert(triangleLists(g) == want, name)
      assert((0 until g.m).forall(e => g.support(e) == want(e).size), name)
      assert(g.triOff.length == g.m + 1, name)
    }
  }

  private def serialize(g: CompactGraph): Array[Byte] = {
    val bytes = new java.io.ByteArrayOutputStream()
    val out = new java.io.ObjectOutputStream(bytes)
    out.writeObject(g); out.close()
    bytes.toByteArray
  }

  private def deserialize(bytes: Array[Byte]): CompactGraph =
    new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes)).readObject().asInstanceOf[CompactGraph]

  test("a Java-serialized graph rebuilds the same triangle index; the index is not written") {
    val g = GraphGen.graph("college")
    val before = triangleLists(g)
    val bytes = serialize(g)
    assert(bytes.length == serialize(GraphGen.graph("college")).length) // the same graph, never indexed
    val copy = deserialize(bytes)
    assert(triangleLists(copy) == before)
    assert(copy.triOff.sameElements(g.triOff))
  }

  test("isolated vertex ids: the triangle and the far edge are indexed apart") {
    val g = CompactGraph.fromEdges(Seq((0, 1), (1, 2), (0, 2), (100, 101)))
    assert(g.n == 102 && g.m == 4)
    assert((0 until g.m).map(g.support) == Seq(1, 1, 1, 0))
    assert(triangleLists(g) == (0 until g.m).map(ReferenceTruss.triangles(g, _)))
    val r = LocalTruss.decompose(g)
    assert(r.truss.toSeq == Seq(3, 3, 3, 2) && r.kMax == 3)
  }

  /** The component index as edge lists, after checking that its slots and
    * `componentOf` agree with its lists and that exactly the edges in no
    * triangle are left out.
    */
  private def componentLists(g: CompactGraph): Seq[Seq[Int]] = {
    val lists = (0 until g.compOff.length - 1).map(c => g.compEdges.slice(g.compOff(c), g.compOff(c + 1)).toSeq)
    assert(g.compOff.head == 0 && g.compOff.last == g.compEdges.length && g.compSlot.length == g.m)
    for ((edges, c) <- lists.zipWithIndex; e <- edges) {
      assert(g.compEdges(g.compSlot(e)) == e)
      assert(g.componentOf(e) == c)
    }
    for (e <- 0 until g.m) assert((g.componentOf(e) == -1) == (g.support(e) == 0), s"edge $e")
    lists
  }

  /** The reference's components, less the edges in no triangle. */
  private def referenceLists(g: CompactGraph): Seq[Seq[Int]] = ReferenceTruss.components(g).filter(_.size > 1)

  test("the component index equals a search over triangle adjacency") {
    val graphs = (1 to 30).map(s => s"random-$s" -> TestGraphs.random(16, 30 + 2 * s, s * 29)) ++
      Seq("college", "pokec").map(n => n -> GraphGen.graph(n))
    for ((name, g) <- graphs) assert(componentLists(g) == referenceLists(g), name)
  }

  test("every triangle's three edges share one component") {
    for (g <- (1 to 10).map(s => TestGraphs.random(20, 70, s * 31)) :+ GraphGen.graph("college"); e <- 0 until g.m)
      g.foreachTriangle(e) { (a, b) =>
        assert(g.componentOf(a) == g.componentOf(e) && g.componentOf(b) == g.componentOf(e), s"edge $e")
      }
  }

  test("componentEdges returns each reached component once, whole, an edge in no triangle alone") {
    val graphs = (1 to 30).map(s => s"random-$s" -> TestGraphs.random(16, 30 + 2 * s, s * 37)) ++
      Seq("college", "pokec").map(n => n -> GraphGen.graph(n))
    for ((name, g) <- graphs) {
      val reference = ReferenceTruss.components(g) // singletons included
      val compOf = new Array[Seq[Int]](g.m)
      reference.foreach(c => c.foreach(compOf(_) = c))
      val rnd = new scala.util.Random(name.hashCode)
      val lone = (0 until g.m).filter(g.support(_) == 0)
      for (trial <- 1 to 20) {
        // duplicates, and edges in no triangle, on purpose
        val picked = Seq.fill(1 + rnd.nextInt(6))(rnd.nextInt(g.m))
        val edges = rnd.shuffle(picked ++ picked.take(2) ++ Seq.fill(if (lone.isEmpty) 0 else 2)(lone(rnd.nextInt(lone.length))))
        val want = edges.map(compOf).distinct.flatten
        assert(g.componentEdges(edges).toSeq == want, s"$name trial=$trial edges=$edges")
      }
      assert(g.componentEdges(Nil).isEmpty, name)
    }
  }

  test("a Java-serialized graph rebuilds the same component index; the index is not written") {
    val g = GraphGen.graph("college")
    val before = componentLists(g)
    val bytes = serialize(g)
    assert(bytes.length == serialize(GraphGen.graph("college")).length) // the same graph, never indexed
    val copy = deserialize(bytes)
    assert(componentLists(copy) == before)
    assert(copy.compSlot.sameElements(g.compSlot))
  }

  test("components of degenerate graphs: empty, triangle-free, fully anchored, isolated ids") {
    val empty = CompactGraph.fromEdges(Nil)
    assert(componentLists(empty).isEmpty && empty.compOff.sameElements(Array(0)))
    assert(LocalTruss.trussGain(empty, LocalTruss.decompose(empty), new Array[Boolean](0)) == 0)

    // a triangle-free path: every edge on its own, in no listed component,
    // and no mask gains anything
    val path = CompactGraph.fromEdges(Seq((0, 1), (1, 2), (2, 3), (3, 4)))
    assert(componentLists(path).isEmpty && referenceLists(path).isEmpty)
    assert(ReferenceTruss.components(path) == Seq(Seq(0), Seq(1), Seq(2), Seq(3)))
    val base = LocalTruss.decompose(path)
    for (bits <- 0 until 16) {
      val mask = Array.tabulate(path.m)(e => (bits >> e & 1) == 1)
      assert(LocalTruss.trussGain(path, base, mask) == 0, s"mask $bits")
    }

    // a triangle with all three edges anchored: one component, nothing to peel
    val tri = TestGraphs.clique(3)
    assert(componentLists(tri) == Seq(Seq(0, 1, 2)))
    val all = LocalTruss.anchorMask(tri.m, 0 until tri.m)
    assert(LocalTruss.trussGain(tri, LocalTruss.decompose(tri), all) == 0)

    val far = CompactGraph.fromEdges(Seq((0, 1), (1, 2), (0, 2), (100, 101)))
    assert(componentLists(far) == Seq(Seq(0, 1, 2)))
    assert(far.componentOf(3) == -1 && far.compSlot(3) == -1)
    val farBase = LocalTruss.decompose(far)
    assert(LocalTruss.trussGain(far, farBase, LocalTruss.anchorMask(far.m, Seq(0, 3))) == 0)
    assert(LocalTruss.decompose(far, LocalTruss.anchorMask(far.m, Seq(3))).truss.toSeq ==
           Seq(3, 3, 3, LocalTruss.AnchorTruss))
  }
}
