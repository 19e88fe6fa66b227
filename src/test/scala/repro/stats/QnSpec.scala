package repro.stats

import org.scalatest.funsuite.AnyFunSuite

class QnSpec extends AnyFunSuite {

  private val rng = new java.util.SplittableRandom(33)
  private def gaussian() = {
    val u1 = math.max(1e-300, rng.nextDouble()); val u2 = rng.nextDouble()
    math.sqrt(-2 * math.log(u1)) * math.cos(2 * math.Pi * u2)
  }

  test("qn scale of a constant vector is zero") {
    assert(Correlations.qnScale(Array(5.0, 5.0, 5.0, 5.0)) == 0.0)
  }

  test("qn scale is shift invariant") {
    val x = Array(1.0, 4.0, 2.0, 8.0, 5.0)
    assert(math.abs(Correlations.qnScale(x) - Correlations.qnScale(x.map(_ + 100))) < 1e-12)
  }

  test("qn scale is absolutely homogeneous") {
    val x = Array(1.0, 4.0, 2.0, 8.0, 5.0)
    assert(math.abs(Correlations.qnScale(x.map(_ * 3)) - 3 * Correlations.qnScale(x)) < 1e-9)
  }

  test("qn scale is Gaussian-consistent for sigma") {
    val x = Array.fill(600)(gaussian() * 2.5)
    val q = Correlations.qnScale(x)
    assert(math.abs(q - 2.5) < 0.4, s"Qn $q vs sigma 2.5")
  }

  test("qn correlation of identical vectors is 1") {
    val x = Array.fill(60)(rng.nextDouble())
    assert(math.abs(Correlations.qnCorrelation(x, x) - 1.0) < 1e-9)
  }

  test("qn correlation of a vector and its negation is -1") {
    val x = Array.fill(60)(rng.nextDouble())
    assert(math.abs(Correlations.qnCorrelation(x, x.map(-_)) + 1.0) < 1e-9)
  }

  test("qn correlation tracks pearson on clean bivariate normal data") {
    val n = 800
    val target = 0.7
    val x = new Array[Double](n); val y = new Array[Double](n)
    for (i <- 0 until n) {
      val z1 = gaussian(); val z2 = gaussian()
      x(i) = z1; y(i) = target * z1 + math.sqrt(1 - target * target) * z2
    }
    val q = Correlations.qnCorrelation(x, y)
    assert(math.abs(q - target) < 0.15, s"Qn correlation $q vs $target")
  }

  test("qn correlation resists a catastrophic outlier that destroys pearson") {
    val n = 120
    val x = Array.tabulate(n)(_.toDouble)
    val y = x.map(_ + 0.01 * gaussian())
    // one poisoned point
    x(0) = 1e6; y(0) = -1e6
    val rp = Correlations.pearson(x, y)
    val rq = Correlations.qnCorrelation(x, y)
    assert(rp < 0.0, s"pearson should be wrecked, got $rp")
    assert(rq > 0.8, s"qn should survive, got $rq")
  }

  test("degenerate inputs are NaN") {
    assert(Correlations.qnCorrelation(Array(1.0), Array(1.0)).isNaN)
    assert(Correlations.qnCorrelation(Array(2.0, 2.0, 2.0), Array(1.0, 2.0, 3.0)).isNaN)
  }
}
