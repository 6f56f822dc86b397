package atrbench

import org.apache.spark.sql.SparkSession
import repro.core.{Baselines, FollowerFinder, Greedy}
import repro.graph.{CompactGraph, GraphGen}
import repro.truss.LocalTruss
import java.util.concurrent.{ExecutorService, Executors}
import scala.util.Random

/** The benchmark's workloads. Each generates its graph from a `GraphGen`
  * preset with the workload seed; the library sees only the generated graph.
  */
object Workloads {

  sealed trait Entry
  case object Gas extends Entry
  case object BasePlus extends Entry
  case object Rst extends Entry // Baselines.rand, sup and tur

  /** @param trials draws per baseline (baseline workloads only)
    * @param graphs graphs per run, generated from seeds derived from the
    *               workload seed; each is called at least once, so a run's
    *               median covers that many inputs
    */
  final case class Workload(name: String, preset: String, entry: Entry, b: Int, trials: Int = 0,
                            graphs: Int = 1) {
    def greedy: Boolean = entry != Rst

    /** Generator seeds of this run's graphs: `seed`, then steps of a large prime. */
    def graphSeeds(seed: Long): Seq[Long] = (0 until graphs).map(i => seed + i * 1000003L)
  }

  // Why each exists: gas-facebook is dominated by tree rebuilds and reuse
  // refreshes (one top component holds ~80% of the edges); baseplus-pokec is
  // a full follower sweep every round and never touches the tree;
  // baselines-pokec is one anchored decomposition per trial, the only
  // workload where the truss kernel dominates. gas-facebook runs on two
  // graphs: its cost follows the size of the one giant component, which
  // varies by ~20% between seeds.
  val all: Seq[Workload] = Seq(
    Workload("gas-facebook", "facebook", Gas, b = 20, graphs = 2),
    Workload("baseplus-pokec", "pokec", BasePlus, b = 20),
    Workload("baselines-pokec", "pokec", Rst, b = 20, trials = 100),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** Trial seeds of Rand, Sup and Tur: the library's defaults. */
  val RandSeed = 7L
  val SupSeed = 11L
  val TurSeed = 13L

  /** What one call of a workload's entry point returned. */
  sealed trait Output
  final case class GreedyOut(result: Greedy.Result) extends Output
  /** Max gains of Rand, Sup and Tur, and the wall time of each in ms. */
  final case class RstOut(rand: Long, sup: Long, tur: Long, millis: Seq[Double]) extends Output

  /** One complete call of the workload's entry point with budget `b`. */
  def call(spark: SparkSession, w: Workload, g: CompactGraph, b: Int, trials: Int): Output =
    w.entry match {
      case Gas      => GreedyOut(Greedy.gas(spark, g, b))
      case BasePlus => GreedyOut(Greedy.basePlus(spark, g, b))
      case Rst =>
        val ms = Array.ofDim[Double](3)
        def timed(i: Int)(f: => Long): Long = {
          val t0 = System.nanoTime(); val v = f; ms(i) = (System.nanoTime() - t0) / 1e6; v
        }
        val r = timed(0)(Baselines.rand(spark, g, b, trials, RandSeed))
        val s = timed(1)(Baselines.sup(spark, g, b, trials, SupSeed))
        val t = timed(2)(Baselines.tur(spark, g, b, trials, TurSeed))
        RstOut(r, s, t, ms.toSeq)
    }

  /** Per-step latencies of one call: each greedy round's `RoundStats.millis`;
    * for the baselines, which have no rounds, one value: the mean wall time
    * of Rand, Sup and Tur in the call.
    */
  def stepMillis(o: Output): Seq[Double] = o match {
    case GreedyOut(r)        => r.rounds.map(_.millis.toDouble)
    case RstOut(_, _, _, ms) => Seq(ms.sum / ms.length)
  }

  // ------------------------------------------------------------ reference

  /** The expected output of a call, computed once outside the timed region. */
  sealed trait Reference
  final case class GreedyRef(anchors: Seq[Int], gain: Long) extends Reference
  final case class RstRef(rand: Long, sup: Long, tur: Long) extends Reference

  /** Greedy workloads: the *other* greedy variant's anchors (GAS ≡ BASE+),
    * and TG recomputed from the anchor mask by an independent anchored
    * decomposition. BASE+ is checked against `Greedy.gas`; GAS against
    * [[basePlusLocal]], BASE+ run on a plain thread pool without Spark.
    * Baselines: a recomputation of the same seeded trials on a plain thread
    * pool, without Spark.
    */
  def reference(spark: SparkSession, w: Workload, g: CompactGraph): Reference = {
    val pool = Executors.newFixedThreadPool(Runtime.getRuntime.availableProcessors())
    try w.entry match {
      case Gas | BasePlus =>
        val anchors =
          if (w.entry == Gas) basePlusLocal(g, w.b, pool) else Greedy.gas(spark, g, w.b).anchors
        GreedyRef(anchors, LocalTruss.trussGain(g, LocalTruss.decompose(g), LocalTruss.anchorMask(g.m, anchors)))
      case Rst =>
        val base = LocalTruss.decompose(g)
        def maxGain(edges: Array[Int], seed: Long): Long =
          (0 until w.trials).map { trial =>
            pool.submit { () =>
              val rnd = new Random(seed * 1000003L + trial)
              val picked = rnd.shuffle(edges.toVector).take(math.min(w.b, edges.length))
              LocalTruss.trussGain(g, base, LocalTruss.anchorMask(g.m, picked))
            }
          }.map(_.get).max
        val finder = new FollowerFinder(g)
        val routes = Array.tabulate(g.m)(e => finder.find(base.truss, base.layer, e).routeSize)
        RstRef(
          maxGain((0 until g.m).toArray, RandSeed),
          maxGain(topFifth(g, Array.tabulate(g.m)(g.support)), SupSeed),
          maxGain(topFifth(g, routes), TurSeed))
    } finally pool.shutdown()
  }

  /** BASE+ greedy (Algorithm 3 per candidate) on `pool`: each round one
    * anchored decomposition, then every candidate's follower count in one
    * stripe per thread; the anchor is the largest count, ties to the
    * smallest edge id, as in `Greedy`.
    */
  def basePlusLocal(g: CompactGraph, b: Int, pool: ExecutorService): Seq[Int] = {
    val stripes = Runtime.getRuntime.availableProcessors()
    val finders = Array.fill(stripes)(new FollowerFinder(g))
    val anchors = new Array[Boolean](g.m)
    (1 to math.min(b, g.m)).map { _ =>
      val dec = LocalTruss.decompose(g, anchors)
      val best = (0 until stripes).map { s =>
        pool.submit { () =>
          var bestE = -1; var bestC = -1
          var e = s
          while (e < g.m) {
            if (!anchors(e)) {
              val c = finders(s).find(dec.truss, dec.layer, e).count
              if (c > bestC) { bestC = c; bestE = e } // stripes ascend: ties keep the smaller id
            }
            e += stripes
          }
          (bestE, bestC)
        }
      }.map(_.get).filter(_._1 >= 0).minBy { case (e, c) => (-c, e) }._1
      anchors(best) = true
      best
    }
  }

  /** Edge ids in the top 20% by `score`, ties by edge id (the pool rule of
    * Sup and Tur).
    */
  def topFifth(g: CompactGraph, score: Array[Int]): Array[Int] =
    (0 until g.m).sortBy(e => (-score(e), e)).take(math.max(1, (g.m * 0.2).toInt)).toArray

  /** None when `o` equals the reference, else what differs. */
  def check(ref: Reference, o: Output): Option[String] = (ref, o) match {
    case (GreedyRef(anchors, gain), GreedyOut(r)) =>
      if (r.anchors != anchors)
        Some(s"anchors ${r.anchors.mkString(",")} != reference ${anchors.mkString(",")}")
      else if (r.gain != gain) Some(s"TG ${r.gain} != reference $gain")
      else None
    case (RstRef(a, b, c), RstOut(x, y, z, _)) =>
      if ((x, y, z) != ((a, b, c))) Some(s"Rand/Sup/Tur ($x,$y,$z) != reference ($a,$b,$c)")
      else None
    case _ => Some(s"output $o does not match reference kind $ref")
  }
}
