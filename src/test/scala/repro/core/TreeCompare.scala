package repro.core

/** Node for node comparison of two truss-component trees, shared by the
  * tree and reuse property tests.
  */
object TreeCompare {

  /** The first difference between `got` and `want` — in `nodeOf`, in the
    * node ids, or in a node's k, parent, sorted edges or sorted children —
    * or None when the trees are equal.
    */
  def firstDifference(got: TrussTree, want: TrussTree): Option[String] =
    if (!got.nodeOf.sameElements(want.nodeOf)) {
      val e = got.nodeOf.indices.find(e => got.nodeOf(e) != want.nodeOf(e)).get
      Some(s"nodeOf($e) = ${got.nodeOf(e)}, want ${want.nodeOf(e)}")
    }
    else if (got.nodes.keySet != want.nodes.keySet)
      Some(s"node ids: extra ${got.nodes.keySet -- want.nodes.keySet}, missing ${want.nodes.keySet -- got.nodes.keySet}")
    else got.nodes.valuesIterator.collectFirst {
      case n if n.k != want.nodes(n.id).k || n.parent != want.nodes(n.id).parent ||
                !n.edges.sorted.sameElements(want.nodes(n.id).edges.sorted) ||
                !n.children.sorted.sameElements(want.nodes(n.id).children.sorted) =>
        val w = want.nodes(n.id)
        s"node ${n.id}: (k ${n.k}, parent ${n.parent}, ${n.edges.length} edges, children " +
          s"${n.children.sorted.mkString(",")}), want (k ${w.k}, parent ${w.parent}, " +
          s"${w.edges.length} edges, children ${w.children.sorted.mkString(",")})"
    }
}
