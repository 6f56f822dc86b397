package repro.graph

import scala.collection.mutable
import scala.util.Random

/** Deterministic synthetic stand-ins for the paper's 8 SNAP datasets.
  *
  * The sealed container has no network access, and the full-size graphs (up
  * to 22.3M edges) would not fit the reproduction budget, so each dataset is
  * replaced by a smaller graph of the same *structural class* (see
  * DESIGN.md §3-4):
  *
  *  - planted communities: vertex subsets wired with high edge probability —
  *    these produce non-trivial truss hierarchies (k-hulls at many levels);
  *  - planted cliques: fully wired subsets — these pin `k_max` (a c-clique
  *    has trussness c) the way Facebook's dense ego-networks pin k_max=97;
  *  - preferential-attachment background edges — these produce the
  *    power-law degree tails of the SNAP graphs.
  *
  * Everything is deterministic in the config (fixed seed per dataset name).
  */
object GraphGen {

  /** Generator configuration; see [[presets]] for the 8 stand-ins. */
  final case class Config(
      name: String,
      nVertices: Int,
      targetEdges: Int,
      /** number of planted communities */
      nCommunities: Int,
      /** community size range (inclusive) */
      commSize: (Int, Int),
      /** intra-community edge probability */
      intraProb: Double,
      /** number of planted full cliques (drive k_max) */
      nCliques: Int,
      /** clique size range (inclusive) */
      cliqueSize: (Int, Int),
      seed: Long,
  )

  /** The 8 dataset stand-ins, in the paper's Table III order (increasing |E|). */
  val presets: Seq[Config] = Seq(
    Config("college",    600,  3500,  40, (5, 12),  0.75,  4, (5, 7),   101L),
    Config("facebook",   1800, 25000, 45, (15, 40), 0.80, 14, (12, 24), 102L),
    Config("brightkite", 6000, 20000, 120, (6, 18), 0.65,  8, (8, 14),  103L),
    Config("gowalla",    12000, 45000, 220, (6, 20), 0.65, 10, (8, 16), 104L),
    Config("youtube",    25000, 55000, 450, (5, 12), 0.68,  6, (6, 10), 105L),
    Config("google",     15000, 50000, 150, (6, 16), 0.70, 20, (10, 18),106L),
    Config("patents",    30000, 65000, 520, (5, 13), 0.68, 10, (8, 14), 107L),
    Config("pokec",      25000, 70000, 300, (6, 18), 0.65, 12, (8, 15), 108L),
  )

  def preset(name: String): Config =
    presets.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown dataset stand-in: $name"))

  /** Generate the edge set for a config. Deterministic. */
  def edges(cfg: Config): IndexedSeq[(Int, Int)] = {
    val rnd = new Random(cfg.seed)
    val set = mutable.LinkedHashSet.empty[(Int, Int)]
    def add(a: Int, b: Int): Unit =
      if (a != b) set += (if (a < b) (a, b) else (b, a))

    // Communities and cliques are sampled from a local vertex window (an
    // "ego region"), mirroring how SNAP social graphs consist of largely
    // disjoint dense neighborhoods; global sampling would overlap every
    // community with every other and destroy the locality that the paper's
    // reuse statistics (Exp-8) rely on.
    def sampleVertices(k: Int): Array[Int] = {
      val window = math.max(k * 4, 20)
      val base = rnd.nextInt(math.max(1, cfg.nVertices - window))
      val s = mutable.LinkedHashSet.empty[Int]
      var guard = 0
      while (s.size < k && guard < window * 20) { guard += 1; s += base + rnd.nextInt(window) }
      s.toArray
    }

    // planted full cliques (pin k_max)
    for (_ <- 0 until cfg.nCliques) {
      val size = cfg.cliqueSize._1 + rnd.nextInt(cfg.cliqueSize._2 - cfg.cliqueSize._1 + 1)
      val vs = sampleVertices(size)
      for (i <- vs.indices; j <- (i + 1) until vs.length) add(vs(i), vs(j))
    }

    // planted communities (truss hierarchy at many levels)
    for (_ <- 0 until cfg.nCommunities if set.size < cfg.targetEdges) {
      val size = cfg.commSize._1 + rnd.nextInt(cfg.commSize._2 - cfg.commSize._1 + 1)
      val vs = sampleVertices(size)
      for (i <- vs.indices; j <- (i + 1) until vs.length)
        if (rnd.nextDouble() < cfg.intraProb) add(vs(i), vs(j))
    }

    // preferential-attachment background: sample endpoints from the pool of
    // existing edge endpoints (degree-proportional), mixed with uniform picks
    // so isolated vertices can join.
    val pool = mutable.ArrayBuffer.empty[Int]
    set.foreach { case (a, b) => pool += a; pool += b }
    var guard = 0
    while (set.size < cfg.targetEdges && guard < cfg.targetEdges * 50) {
      guard += 1
      val a = if (pool.nonEmpty && rnd.nextDouble() < 0.6) pool(rnd.nextInt(pool.length))
              else rnd.nextInt(cfg.nVertices)
      val b = if (pool.nonEmpty && rnd.nextDouble() < 0.4) pool(rnd.nextInt(pool.length))
              else rnd.nextInt(cfg.nVertices)
      val before = set.size
      add(a, b)
      if (set.size > before) { pool += a; pool += b }
    }
    set.toIndexedSeq
  }

  /** Generate as a CompactGraph. */
  def graph(cfg: Config): CompactGraph = CompactGraph.fromEdges(edges(cfg))

  def graph(name: String): CompactGraph = graph(preset(name))

  /** Exp-2 subgraph extraction (method of Linghu et al. [3], as described in
    * the paper): grow a vertex set from a seed vertex by repeatedly adding a
    * frontier vertex and its neighbors, stopping when the induced edge count
    * reaches [lo, hi]. A frontier vertex whose addition would take the count
    * above `hi` is not kept, so the result is induced and has at most `hi`
    * edges (fewer than `lo` if every way on would overshoot). Returns the
    * induced subgraph re-labelled to dense ids.
    */
  def extractSubgraph(g: CompactGraph, seedVertex: Int, lo: Int, hi: Int): CompactGraph = {
    val inSet = mutable.LinkedHashSet[Int](seedVertex)
    val queue = mutable.Queue[Int](seedVertex)
    def inducedEdgeCount: Int = {
      var c = 0
      var e = 0
      while (e < g.m) {
        if (inSet.contains(g.edgeU(e)) && inSet.contains(g.edgeV(e))) c += 1
        e += 1
      }
      c
    }
    var done = false
    while (!done && queue.nonEmpty) {
      val u = queue.dequeue()
      var i = g.adjOff(u)
      while (i < g.adjOff(u + 1) && !done) {
        val w = g.adjV(i)
        if (!inSet.contains(w)) {
          inSet += w
          val count = inducedEdgeCount
          if (count > hi) inSet -= w
          else { queue += w; done = count >= lo }
        }
        i += 1
      }
    }
    val relabel = inSet.toSeq.zipWithIndex.toMap
    val sub = (0 until g.m).collect {
      case e if inSet.contains(g.edgeU(e)) && inSet.contains(g.edgeV(e)) =>
        (relabel(g.edgeU(e)), relabel(g.edgeV(e)))
    }
    CompactGraph.fromEdges(sub)
  }
}
