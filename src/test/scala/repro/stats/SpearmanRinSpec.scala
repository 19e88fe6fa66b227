package repro.stats

import org.scalatest.funsuite.AnyFunSuite

class SpearmanRinSpec extends AnyFunSuite {

  private val rng = new java.util.SplittableRandom(21)

  test("spearman is 1 for any strictly monotone relationship") {
    val x = Array(1.0, 2.0, 3.0, 4.0, 5.0)
    assert(math.abs(Correlations.spearman(x, x.map(v => math.exp(v))) - 1.0) < 1e-12)
    assert(math.abs(Correlations.spearman(x, x.map(v => v * v * v)) - 1.0) < 1e-12)
  }

  test("spearman is -1 for strictly decreasing relationships") {
    val x = Array(1.0, 2.0, 3.0, 4.0)
    assert(math.abs(Correlations.spearman(x, x.map(v => 1.0 / v)) + 1.0) < 1e-12)
  }

  test("spearman hand example with ties") {
    // classic check: ranks x = (1,2,3), ranks y = (1.5, 1.5, 3)
    val r = Correlations.spearman(Array(1.0, 2.0, 3.0), Array(5.0, 5.0, 9.0))
    assert(math.abs(r - 0.866025403784) < 1e-9)
  }

  test("spearman is invariant to monotone transforms of either column") {
    val x = Array.fill(200)(rng.nextDouble() * 10)
    val y = x.map(v => v + rng.nextDouble())
    val r1 = Correlations.spearman(x, y)
    val r2 = Correlations.spearman(x.map(math.log), y.map(v => v * v * v))
    assert(math.abs(r1 - r2) < 1e-12)
  }

  test("spearman captures nonlinear dependence better than pearson") {
    val x = Array.tabulate(500)(i => i / 50.0)
    val y = x.map(v => math.exp(v)) // convex monotone
    assert(Correlations.spearman(x, y) > Correlations.pearson(x, y))
  }

  test("spearman equals pearson over average ranks by definition") {
    val x = Array(3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0)
    val y = Array(2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 1.0, 9.0)
    val viaRanks = Correlations.pearson(Ranks.averageRanks(x), Ranks.averageRanks(y))
    assert(Correlations.spearman(x, y) == viaRanks)
  }

  test("rin equals pearson after rankit transform by definition") {
    val x = Array.fill(50)(rng.nextDouble())
    val y = Array.fill(50)(rng.nextDouble())
    assert(Correlations.rin(x, y) ==
      Correlations.pearson(Ranks.rankit(x), Ranks.rankit(y)))
  }

  test("rin is close to 1 for monotone relationships") {
    val x = Array.tabulate(300)(_.toDouble)
    assert(Correlations.rin(x, x.map(math.sqrt)) > 0.999)
  }

  test("rin tames heavy-tailed marginals") {
    // Lognormal contamination wrecks Pearson but not rank-based measures.
    val z = Array.fill(800)(rng.nextDouble() * 4 - 2)
    val x = z.map(math.exp) // heavy tail
    val y = z.map(v => v + 0.1 * rng.nextDouble())
    assert(Correlations.rin(x, y) > Correlations.pearson(x, y))
    assert(Correlations.rin(x, y) > 0.95)
  }

  test("degenerate inputs are NaN for both") {
    assert(Correlations.spearman(Array(1.0), Array(1.0)).isNaN)
    assert(Correlations.rin(Array(2.0, 2.0, 2.0), Array(1.0, 2.0, 3.0)).isNaN)
  }
}
