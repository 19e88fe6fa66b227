package repro.rank

import org.scalatest.funsuite.AnyFunSuite

class MetricsSpec extends AnyFunSuite {

  test("AP of a perfect ranking is 1") {
    assert(Metrics.averagePrecision(Seq(true, true, false, false)) == 1.0)
  }

  test("AP hand example [T, F, T]") {
    val ap = Metrics.averagePrecision(Seq(true, false, true))
    assert(math.abs(ap - (1.0 + 2.0 / 3.0) / 2.0) < 1e-12)
  }

  test("AP hand example [F, T, F, T]") {
    val ap = Metrics.averagePrecision(Seq(false, true, false, true))
    assert(math.abs(ap - (0.5 + 0.5) / 2.0) < 1e-12)
  }

  test("AP with no relevant items is NaN") {
    assert(Metrics.averagePrecision(Seq(false, false)).isNaN)
    assert(Metrics.averagePrecision(Seq.empty).isNaN)
  }

  test("AP decreases when a relevant item moves down") {
    val better = Metrics.averagePrecision(Seq(true, false, false))
    val worse = Metrics.averagePrecision(Seq(false, false, true))
    assert(better > worse)
  }

  test("MAP averages only the defined queries") {
    val map = Metrics.mean(Seq(1.0, Double.NaN, 0.5))
    assert(map == 0.75)
  }

  test("MAP of all-undefined queries is NaN") {
    assert(Metrics.mean(Seq(Double.NaN)).isNaN)
  }

  test("DCG hand example") {
    // gains (3, 2, 1) at positions 1..3: 3/log2(2) + 2/log2(3) + 1/log2(4)
    val d = Metrics.dcg(Seq(3.0, 2.0, 1.0), 3)
    val expect = 3.0 + 2.0 / (math.log(3) / math.log(2)) + 0.5
    assert(math.abs(d - expect) < 1e-12)
  }

  test("DCG respects the cutoff k") {
    assert(Metrics.dcg(Seq(1.0, 1.0, 1.0), 1) == 1.0)
  }

  test("nDCG of the ideal ordering is 1") {
    assert(math.abs(Metrics.ndcg(Seq(0.9, 0.5, 0.1), 3) - 1.0) < 1e-12)
  }

  test("nDCG of a reversed ordering is below 1") {
    val n = Metrics.ndcg(Seq(0.1, 0.5, 0.9), 3)
    assert(n < 1.0 && n > 0.0)
  }

  test("nDCG with all-zero gains is NaN") {
    assert(Metrics.ndcg(Seq(0.0, 0.0), 5).isNaN)
  }

  test("nDCG is bounded by 1 for any permutation") {
    val gains = Seq(0.3, 0.9, 0.0, 0.7, 0.2)
    gains.permutations.take(50).foreach { p =>
      val v = Metrics.ndcg(p, 3)
      assert(v <= 1.0 + 1e-12)
    }
  }

  test("nDCG@k uses the ideal ranking truncated at the same k") {
    // gains below the cutoff in the ideal ordering must not inflate IDCG
    val v = Metrics.ndcg(Seq(1.0, 0.0, 0.0), 1)
    assert(v == 1.0)
  }
}
