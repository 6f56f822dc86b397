package atrbench

/** Order statistics used for every reported timing. */
object Stats {

  /** The `p`-th percentile (0 to 100) of `xs`, linearly interpolated
    * between the two nearest order statistics (numpy's default method), so
    * a median of an even count is the mean of the middle pair.
    */
  def percentile(xs: Iterable[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of an empty sample")
    require(p >= 0 && p <= 100, s"percentile $p outside [0, 100]")
    val s = xs.toArray.sorted
    val pos = p / 100.0 * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.ceil(pos).toInt
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Iterable[Double]): Double = percentile(xs, 50)
}

/** Counts calls attempted and failed. A call fails when it throws or when
  * its output check returns an error message.
  */
final class Tally {
  private var attempted0 = 0
  private val failures = scala.collection.mutable.ArrayBuffer.empty[String]

  def attempted: Int = attempted0
  def failed: Int = failures.length
  def failedFrac: Double = if (attempted0 == 0) 0.0 else failed.toDouble / attempted0
  def messages: Seq[String] = failures.toSeq

  /** Run `call`, check its value, and count the outcome. Returns the value
    * when the call returned at all, whether or not the check passed.
    */
  def attempt[T](call: => T)(check: T => Option[String]): Option[T] = {
    attempted0 += 1
    try {
      val v = call
      check(v).foreach(failures += _)
      Some(v)
    } catch {
      case e: Exception =>
        failures += s"${e.getClass.getSimpleName}: ${e.getMessage}"
        None
    }
  }
}
