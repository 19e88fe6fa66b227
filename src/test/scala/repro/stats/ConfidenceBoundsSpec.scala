package repro.stats

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures.{bivariate, normalCdf}

class ConfidenceBoundsSpec extends AnyFunSuite {

  private def bounded(n: Int, r: Double, seed: Long): (Array[Double], Array[Double]) = {
    // Correlated pairs mapped into [0, 1] via the normal CDF — bounded data,
    // the setting the Hoeffding analysis assumes.
    val (x, y) = bivariate(n, r, seed)
    (x.map(normalCdf), y.map(normalCdf))
  }

  test("fisher z standard error values") {
    assert(ConfidenceBounds.fisherZse(4) == 1.0)
    assert(ConfidenceBounds.fisherZse(7) == 0.5)
    assert(math.abs(ConfidenceBounds.fisherZse(103) - 0.1) < 1e-12)
  }

  test("fisher z SE is floored at n = 4 for small samples") {
    assert(ConfidenceBounds.fisherZse(0) == 1.0)
    assert(ConfidenceBounds.fisherZse(3) == 1.0)
  }

  test("an infinite value range yields the vacuous bounds") {
    val x = Array(1e308, -1e308, 1e308, -1e308)
    val y = Array(-1e308, 1e308, 1e308, -1e308)
    assert(ConfidenceBounds.hoeffding(x, y, -1e308, 1e308) ==
      ConfidenceBounds.Hoeffding(-1.0, 1.0, Double.NegativeInfinity, Double.PositiveInfinity))
  }

  test("bounds are ordered and within [-1, 1]") {
    val (x, y) = bounded(200, 0.5, 1L)
    val h = ConfidenceBounds.hoeffding(x, y, 0.0, 1.0)
    assert(h.rhoLow <= h.rhoHigh)
    assert(h.rhoLow >= -1.0 && h.rhoHigh <= 1.0)
  }

  test("interval length shrinks with sample size") {
    val (x1, y1) = bounded(50, 0.5, 2L)
    val (x2, y2) = bounded(5000, 0.5, 3L)
    val l1 = ConfidenceBounds.hoeffding(x1, y1, 0.0, 1.0).length
    val l2 = ConfidenceBounds.hoeffding(x2, y2, 0.0, 1.0).length
    assert(l2 < l1, s"lengths: n=50 → $l1, n=5000 → $l2")
  }

  test("interval length scales like 1/sqrt(n) for large n") {
    val (x1, y1) = bounded(10000, 0.3, 4L)
    val (x2, y2) = bounded(40000, 0.3, 5L)
    val l1 = ConfidenceBounds.hoeffding(x1, y1, 0.0, 1.0).hfdLength
    val l2 = ConfidenceBounds.hoeffding(x2, y2, 0.0, 1.0).hfdLength
    // quadrupling n should roughly halve the hfd width
    assert(l2 < l1 * 0.7, s"widths $l1 → $l2")
  }

  test("ci covers the true correlation with at least the nominal rate") {
    val trials = 60
    var covered = 0
    for (t <- 0 until trials) {
      val (x, y) = bounded(400, 0.6, 50L + t)
      val h = ConfidenceBounds.hoeffding(x, y, 0.0, 1.0, alpha = 0.05)
      if (h.rhoLow <= 0.6 && 0.6 <= h.rhoHigh) covered += 1
    }
    // Hoeffding + union bounds are conservative: empirical coverage should
    // be well above 95%.
    assert(covered >= (trials * 0.9).toInt, s"coverage $covered/$trials")
  }

  test("a larger data range C widens the bounds") {
    val (x, y) = bounded(300, 0.4, 6L)
    val tight = ConfidenceBounds.hoeffding(x, y, 0.0, 1.0).hfdLength
    val loose = ConfidenceBounds.hoeffding(x, y, -10.0, 10.0).hfdLength
    assert(loose > tight)
  }

  test("smaller alpha (higher confidence) widens the bounds") {
    val (x, y) = bounded(300, 0.4, 7L)
    val l05 = ConfidenceBounds.hoeffding(x, y, 0.0, 1.0, alpha = 0.05).hfdLength
    val l001 = ConfidenceBounds.hoeffding(x, y, 0.0, 1.0, alpha = 0.001).hfdLength
    assert(l001 > l05)
  }

  test("empty sample yields the vacuous interval") {
    val h = ConfidenceBounds.hoeffding(Array.empty, Array.empty, 0.0, 1.0)
    assert(h.rhoLow == -1.0 && h.rhoHigh == 1.0)
  }

  test("zero data range yields the vacuous interval") {
    val h = ConfidenceBounds.hoeffding(Array(3.0, 3.0), Array(3.0, 3.0), 3.0, 3.0)
    assert(h.rhoLow == -1.0 && h.rhoHigh == 1.0)
  }

  test("degenerate (constant) sample makes the HFD length non-finite") {
    val h = ConfidenceBounds.hoeffding(Array(1.0, 1.0, 1.0), Array(0.2, 0.2, 0.2), 0.0, 2.0)
    assert(!java.lang.Double.isFinite(h.hfdLength))
  }

  test("hfd interval is informative at small n where the true bounds are vacuous") {
    val (x, y) = bounded(10, 0.9, 8L)
    val h = ConfidenceBounds.hoeffding(x, y, 0.0, 1.0)
    // with n = 10 and C = 1 the probabilistic bounds collapse to [-1, 1] ...
    assert(h.rhoLow == -1.0 && h.rhoHigh == 1.0)
    // ... but the HFD variant still produces a finite, usable length
    assert(java.lang.Double.isFinite(h.hfdLength) && h.hfdLength > 0.0)
  }

  test("the hfd length still reflects sample size at small n") {
    val (x1, y1) = bounded(8, 0.5, 9L)
    val (x2, y2) = bounded(64, 0.5, 10L)
    val l1 = ConfidenceBounds.hoeffding(x1, y1, 0.0, 1.0).hfdLength
    val l2 = ConfidenceBounds.hoeffding(x2, y2, 0.0, 1.0).hfdLength
    assert(l2 < l1)
  }

  test("bounds are invariant to the scale of the values, also where C⁴ overflows") {
    val (x, y) = bounded(10000, 0.9, 11L)
    val (cLow, cHigh) = (-0.25, 1.0)
    val base = ConfidenceBounds.hoeffding(x, y, cLow, cHigh)
    assert(base.rhoLow > -1.0 && java.lang.Double.isFinite(base.hfdLength), s"$base")
    for (s <- Seq(1e-100, 1e100, 1e150)) {
      val h = ConfidenceBounds.hoeffding(x.map(_ * s), y.map(_ * s), cLow * s, cHigh * s)
      def close(a: Double, b: Double) = math.abs(a - b) <= 1e-9 * math.abs(b)
      assert(close(h.rhoLow, base.rhoLow) && close(h.rhoHigh, base.rhoHigh) &&
        close(h.hfdLow, base.hfdLow) && close(h.hfdHigh, base.hfdHigh), s"scale $s: $h vs $base")
    }
  }
}
