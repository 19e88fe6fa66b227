package repro.stats

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures.bivariate

class BootstrapSpec extends AnyFunSuite {

  test("bootstrap estimate is close to the plain pearson estimate") {
    val (x, y) = bivariate(200, 0.6, 1L)
    val b = Correlations.pm1Bootstrap(x, y)
    assert(math.abs(b.estimate - Correlations.pearson(x, y)) < 0.05)
  }

  test("ci brackets the estimate") {
    val (x, y) = bivariate(150, 0.4, 2L)
    val b = Correlations.pm1Bootstrap(x, y)
    assert(b.ciLow <= b.estimate && b.estimate <= b.ciHigh)
  }

  test("ci bounds are valid correlations") {
    val (x, y) = bivariate(80, -0.7, 3L)
    val b = Correlations.pm1Bootstrap(x, y)
    assert(b.ciLow >= -1.0 && b.ciHigh <= 1.0 && b.ciLow <= b.ciHigh)
  }

  test("ci narrows as the sample grows") {
    val (x1, y1) = bivariate(20, 0.5, 4L)
    val (x2, y2) = bivariate(2000, 0.5, 5L)
    val w1 = { val b = Correlations.pm1Bootstrap(x1, y1); b.ciHigh - b.ciLow }
    val w2 = { val b = Correlations.pm1Bootstrap(x2, y2); b.ciHigh - b.ciLow }
    assert(w2 < w1, s"widths: n=20 → $w1, n=2000 → $w2")
  }

  test("deterministic under a fixed seed") {
    val (x, y) = bivariate(60, 0.2, 6L)
    val b1 = Correlations.pm1Bootstrap(x, y, seed = 99L)
    val b2 = Correlations.pm1Bootstrap(x, y, seed = 99L)
    assert(b1 == b2)
  }

  test("different seeds give slightly different estimates") {
    val (x, y) = bivariate(60, 0.2, 7L)
    val b1 = Correlations.pm1Bootstrap(x, y, seed = 1L)
    val b2 = Correlations.pm1Bootstrap(x, y, seed = 2L)
    assert(b1.estimate != b2.estimate)
    assert(math.abs(b1.estimate - b2.estimate) < 0.1)
  }

  test("tiny samples return NaN estimate with the vacuous interval") {
    val b = Correlations.pm1Bootstrap(Array(1.0, 2.0), Array(2.0, 1.0))
    assert(b.estimate.isNaN && b.ciLow == -1.0 && b.ciHigh == 1.0)
  }

  test("ci covers the true correlation on repeated draws") {
    val trials = 30
    var covered = 0
    for (t <- 0 until trials) {
      val (x, y) = bivariate(100, 0.5, 100L + t)
      val b = Correlations.pm1Bootstrap(x, y, seed = t)
      if (b.ciLow <= 0.5 && 0.5 <= b.ciHigh) covered += 1
    }
    assert(covered >= trials * 0.8, s"coverage $covered/$trials")
  }
}
