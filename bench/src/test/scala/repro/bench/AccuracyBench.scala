package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.AccuracyEval
import repro.eval.AccuracyEval.rmse

/** Supporting bench for §5.2/§5.3 (Figures 3–4 are figures and out of
  * scope, but their quantitative claims are reproduced as numbers):
  * estimates concentrate around the truth, RMSE decreases as the sketch
  * intersection grows and stabilizes roughly at 0.1, and the estimators
  * (Pearson, Spearman, RIN, Qn, PM1) behave similarly.
  */
class AccuracyBench extends AnyFunSuite {

  private lazy val obs = AccuracyEval.experiment()

  test("Fig 3/4 support: print RMSE by estimator, sketch size and join-size bucket") {
    println(AccuracyEval.render(obs))
    println("paper: RMSE decreases with sketch intersection size and stabilizes ~0.1")
  }

  test("Fig 4 shape: RMSE decreases as the sketch intersection grows") {
    val p = obs.filter(o => o.estimator == "pearson" && o.sketchSize == 256)
    val small = p.filter(o => o.joinSize >= 4 && o.joinSize < 16)
    val large = p.filter(_.joinSize >= 128)
    assert(small.nonEmpty && large.nonEmpty)
    assert(rmse(large) < rmse(small),
      s"RMSE large-join ${rmse(large)} vs small-join ${rmse(small)}")
  }

  test("Fig 4 shape: RMSE stabilizes near 0.1 for large intersections") {
    val large = obs.filter(o => o.estimator == "pearson" && o.joinSize >= 128)
    assert(rmse(large) < 0.15, s"RMSE ${rmse(large)}")
  }

  test("Fig 3 shape: estimates concentrate around the diagonal on SBN data") {
    val p = obs.filter(o => o.estimator == "pearson" && o.sketchSize == 256 && o.joinSize >= 20)
    val within = p.count(o => math.abs(o.estimate - o.truth) < 0.2).toDouble / p.size
    assert(within > 0.85, f"only ${within * 100}%.1f%% of estimates within ±0.2")
  }

  test("Fig 4 shape: all estimators display the same decreasing trend") {
    for (est <- Seq("spearman", "rin", "pm1")) {
      val p = obs.filter(o => o.estimator == est)
      val small = p.filter(o => o.joinSize >= 4 && o.joinSize < 16)
      val large = p.filter(_.joinSize >= 256)
      assert(small.nonEmpty && large.nonEmpty, s"$est: empty buckets")
      assert(rmse(large) < rmse(small), s"$est: ${rmse(large)} vs ${rmse(small)}")
    }
  }

  test("Fig 4 shape: Qn is less robust than the others at small samples (spikes)") {
    val qnSmall = obs.filter(o => o.estimator == "qn" && o.joinSize < 32)
    val pSmall = obs.filter(o => o.estimator == "pearson" && o.joinSize < 32)
    assert(qnSmall.nonEmpty && pSmall.nonEmpty)
    // Qn's small-sample RMSE should not beat Pearson's by much — the paper
    // observes Qn spiking; we only require it not be dramatically better.
    assert(rmse(qnSmall) > rmse(pSmall) * 0.8,
      s"qn ${rmse(qnSmall)} vs pearson ${rmse(pSmall)}")
  }
}
