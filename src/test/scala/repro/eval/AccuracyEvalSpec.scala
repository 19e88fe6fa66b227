package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.data.TableGen

class AccuracyEvalSpec extends AnyFunSuite {

  private lazy val pairs = TableGen.sbn(25, 500, 4000, seed = 66L).map(p => (p.x, p.y))
  private lazy val obs = AccuracyEval.observe(pairs, Seq(64, 256))

  test("observations cover every estimator") {
    val ests = obs.map(_.estimator).toSet
    assert(ests == AccuracyEval.estimators.map(_.name).toSet)
  }

  test("join sizes never exceed the sketch size") {
    obs.foreach(o => assert(o.joinSize <= o.sketchSize))
  }

  test("estimates and truths are valid correlations") {
    obs.foreach { o =>
      assert(o.estimate >= -1.0 && o.estimate <= 1.0)
      assert(o.truth >= -1.0 && o.truth <= 1.0)
    }
  }

  test("pearson RMSE shrinks as the sketch size grows") {
    val byDim = obs.filter(_.estimator == "pearson").groupBy(_.sketchSize)
    import AccuracyEval.rmse
    assert(rmse(byDim(256)) < rmse(byDim(64)) + 0.02,
      s"rmse@256=${rmse(byDim(256))} rmse@64=${rmse(byDim(64))}")
  }

  test("large sketch joins estimate accurately (the Fig. 4 plateau)") {
    val big = obs.filter(o => o.estimator == "pearson" && o.joinSize >= 128)
    assert(big.nonEmpty)
    val rmse = AccuracyEval.rmse(big)
    assert(rmse < 0.15, s"RMSE $rmse at join size >= 128")
  }

  test("rmseByBucket groups by powers of two") {
    AccuracyEval.rmseByBucket(obs).foreach { case (_, _, bucket, _, _) =>
      assert(Integer.bitCount(bucket) == 1)
    }
  }

  test("render emits one line per (estimator, size, bucket) group") {
    val out = AccuracyEval.render(obs)
    assert(out.linesIterator.size == AccuracyEval.rmseByBucket(obs).size + 2)
  }
}
