package atrbench

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core.{Baselines, Greedy}

/** The traced replay must be the library's program: same anchors, same
  * per-round evaluated/reused counts, same baseline maxima.
  */
class ReplaySpec extends AnyFunSuite with BeforeAndAfterAll {

  private lazy val spark = SparkSession.builder
    .master("local[2]").appName("atrbench-test")
    .config("spark.ui.enabled", false).config("spark.driver.host", "127.0.0.1")
    .getOrCreate()

  override def afterAll(): Unit = spark.stop()

  private def lib(r: Greedy.Result) = Workloads.GreedyOut(r)

  test("GAS replay reproduces Greedy.gas round for round") {
    for (seed <- 1 to 4) {
      val g = TestGraphs.random(14, 50, seed * 59 + 4)
      val tr = new Tracer(s"gas-$seed")
      val replayed = Replay.gas(spark, g, 4, tr)
      assert(Main.fidelity(lib(Greedy.gas(spark, g, 4)), lib(replayed)).isEmpty, s"seed=$seed")
      assert(tr.counter("greedy.evaluated") == replayed.totalEvaluations)
      assert(tr.named("reuse.refresh").size == replayed.rounds.size)
    }
  }

  test("BASE+ replay reproduces Greedy.basePlus") {
    for (seed <- 1 to 3) {
      val g = TestGraphs.random(13, 48, seed * 61 + 6)
      val tr = new Tracer(s"baseplus-$seed")
      val replayed = Replay.basePlus(spark, g, 3, tr)
      assert(Main.fidelity(lib(Greedy.basePlus(spark, g, 3)), lib(replayed)).isEmpty, s"seed=$seed")
      assert(tr.counter("followers.find_calls") == replayed.totalEvaluations)
    }
  }

  test("the thread-pool BASE+ reference picks Greedy.basePlus's anchors") {
    val pool = java.util.concurrent.Executors.newFixedThreadPool(3)
    try for (seed <- 1 to 4) {
      val g = TestGraphs.random(14, 50, seed * 67 + 8)
      assert(Workloads.basePlusLocal(g, 4, pool) == Greedy.basePlus(spark, g, 4).anchors, s"seed=$seed")
    } finally pool.shutdown()
  }

  test("the fidelity gate rejects a replay with a different anchor or reuse count") {
    val g = TestGraphs.random(14, 50, 63)
    val r = Greedy.gas(spark, g, 3)
    val moved = r.copy(anchors = r.anchors.updated(0, r.anchors.head + 1))
    assert(Main.fidelity(lib(r), lib(moved)).nonEmpty)
    val recount = r.copy(rounds = r.rounds.map(s => s.copy(reusedFully = s.reusedFully + 1)))
    assert(Main.fidelity(lib(r), lib(recount)).nonEmpty)
  }

  test("baselines replay reproduces Rand, Sup and Tur") {
    val g = TestGraphs.random(16, 60, 17)
    val tr = new Tracer("rst")
    val (r, s, t) = Replay.baselines(spark, g, 3, 6, tr)
    assert(r == Baselines.rand(spark, g, 3, 6, Workloads.RandSeed))
    assert(s == Baselines.sup(spark, g, 3, 6, Workloads.SupSeed))
    assert(t == Baselines.tur(spark, g, 3, 6, Workloads.TurSeed))
    assert(Layers.decomposeMs(tr).length >= 18) // one per trial, plus the base decompositions
  }

  test("layer self times and unspanned time add up to the replayed call's wall time") {
    val g = TestGraphs.random(14, 50, 21)
    val tr = new Tracer("attribution")
    Replay.gas(spark, g, 3, tr)
    val select = tr.named("greedy.select").head.ms
    assert(tr.named("tree.rebuild").size == 3) // timed after the call, outside greedy.select
    val total = Layers.selfMs(tr).values.sum + Layers.unspannedMs(tr)
    assert(math.abs(total - select) < 1e-6 * select + 1e-6)
  }

  test("time outside every layer span is unattributed, so the completeness gate sees it") {
    val tr = new Tracer("gap")
    tr.span("greedy.select") {
      tr.span("greedy.round") {
        Thread.sleep(60) // replay work no layer span covers
        tr.span("truss.decompose") { Thread.sleep(20) }
      }
    }
    val self = Layers.selfMs(tr)
    assert(self("truss") >= 20 && self.values.sum < 40)
    assert(Layers.unspannedMs(tr) >= 60)
    val untracedS = tr.named("greedy.select").head.ms / 1000
    assert(Main.completeness(self.values.sum, untracedS).nonEmpty)
    assert(Main.completeness(untracedS * 1000 * 0.95, untracedS).isEmpty)
  }
}
