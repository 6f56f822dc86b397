package atrbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Greedy

class StatsSpec extends AnyFunSuite {

  test("median of an odd sample is its middle value, of an even one the mean of the middle pair") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
    assert(Stats.median(Seq(7.0)) == 7.0)
  }

  test("percentiles interpolate linearly between order statistics") {
    val xs = (1 to 11).map(_.toDouble) // 1..11
    assert(Stats.percentile(xs, 0) == 1.0)
    assert(Stats.percentile(xs, 100) == 11.0)
    assert(Stats.percentile(xs, 90) == 10.0)
    assert(math.abs(Stats.percentile(Seq(10.0, 20.0), 90) - 19.0) < 1e-9)
  }

  test("percentile rejects an empty sample and an out-of-range rank") {
    assertThrows[IllegalArgumentException](Stats.median(Nil))
    assertThrows[IllegalArgumentException](Stats.percentile(Seq(1.0), 101))
  }

  private def result(anchors: Seq[Int], gain: Long) = Greedy.Result(anchors, gain, Nil)

  test("a call whose anchors differ from the reference counts as failed") {
    val ref = Workloads.GreedyRef(Seq(4, 8, 15), 9L)
    val tally = new Tally
    tally.attempt(Workloads.GreedyOut(result(Seq(4, 8, 15), 9L)))(Workloads.check(ref, _))
    tally.attempt(Workloads.GreedyOut(result(Seq(4, 8, 16), 9L)))(Workloads.check(ref, _))
    assert(tally.attempted == 2)
    assert(tally.failed == 1)
    assert(tally.failedFrac == 0.5)
  }

  test("a wrong TG or baseline value, and a call that throws, count as failed") {
    val tally = new Tally
    val ref = Workloads.GreedyRef(Seq(1), 3L)
    tally.attempt(Workloads.GreedyOut(result(Seq(1), 2L)))(Workloads.check(ref, _))
    tally.attempt(Workloads.RstOut(1, 2, 4, Nil): Workloads.Output)(Workloads.check(Workloads.RstRef(1, 2, 3), _))
    val thrown = tally.attempt[Workloads.Output](throw new IllegalStateException("boom"))(Workloads.check(ref, _))
    assert(thrown.isEmpty)
    assert(tally.attempted == 3 && tally.failed == 3)
    assert(tally.failedFrac == 1.0)
    assert(new Tally().failedFrac == 0.0)
  }
}
