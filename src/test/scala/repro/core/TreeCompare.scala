package repro.core

/** Reading and comparing truss-component trees, shared by the tree and
  * reuse property tests.
  */
object TreeCompare {

  /** A tree node as the paper's Table II has it: `id` = smallest member
    * edge id (TN.I), `k` = the shared trussness (TN.K), `edges` = TN.E,
    * `parent` = parent node id or -1 (TN.P), `children` = child node ids
    * (TN.C); edges and children ascending.
    */
  final case class Node(id: Int, k: Int, edges: Array[Int], parent: Int, children: Array[Int])

  /** Every node of `tree`, built under trussness `truss`, by id. */
  def nodes(tree: TrussTree, truss: Array[Int]): Map[Int, Node] = {
    val edges = tree.nodeOf.indices.filter(tree.nodeOf(_) != -1).groupBy(tree.nodeOf(_))
    val children = edges.keys.groupBy(tree.parent)
    edges.map { case (id, es) =>
      id -> Node(id, truss(id), es.toArray, tree.parent(id), children.getOrElse(id, Nil).toArray.sorted)
    }
  }

  /** The first difference between `got` and `want` — in `nodeOf`, or in a
    * node's parent — or None when the trees are equal. Equal `nodeOf`s give
    * the same node ids and edge sets, and with them the same k.
    */
  def firstDifference(got: TrussTree, want: TrussTree): Option[String] =
    if (!got.nodeOf.sameElements(want.nodeOf)) {
      val e = got.nodeOf.indices.find(e => got.nodeOf(e) != want.nodeOf(e)).get
      Some(s"nodeOf($e) = ${got.nodeOf(e)}, want ${want.nodeOf(e)}")
    }
    else got.nodeOf.indices.collectFirst {
      case id if got.nodeOf(id) == id && got.parent(id) != want.parent(id) =>
        s"parent($id) = ${got.parent(id)}, want ${want.parent(id)}"
    }
}
