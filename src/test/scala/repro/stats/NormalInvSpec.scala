package repro.stats

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.{Fixtures, PropSupport}

class NormalInvSpec extends AnyFunSuite with PropSupport {

  test("icdf of the median is zero") {
    assert(math.abs(NormalInv.icdf(0.5)) < 1e-12)
  }

  test("known quantiles match published values") {
    assert(math.abs(NormalInv.icdf(0.975) - 1.959964) < 1e-4)
    assert(math.abs(NormalInv.icdf(0.95) - 1.644854) < 1e-4)
    assert(math.abs(NormalInv.icdf(0.8413) - 1.0) < 1e-3)
  }

  test("icdf is antisymmetric around 1/2") {
    for (p <- Seq(0.01, 0.1, 0.25, 0.4)) {
      assert(math.abs(NormalInv.icdf(p) + NormalInv.icdf(1 - p)) < 1e-9)
    }
  }

  test("icdf is strictly increasing (property)") {
    checkProp(Prop.forAll(Gen.chooseNum(0.001, 0.998), Gen.chooseNum(0.0005, 0.001)) {
      (p, eps) => NormalInv.icdf(p) < NormalInv.icdf(p + eps)
    })
  }

  test("cdf round-trips icdf (property)") {
    checkProp(Prop.forAll(Gen.chooseNum(0.01, 0.99)) { p =>
      math.abs(Fixtures.normalCdf(NormalInv.icdf(p)) - p) < 1e-4
    })
  }

  test("endpoints map to infinities") {
    assert(NormalInv.icdf(0.0).isNegInfinity)
    assert(NormalInv.icdf(1.0).isPosInfinity)
  }

  test("out-of-domain inputs yield NaN") {
    assert(NormalInv.icdf(-0.1).isNaN)
    assert(NormalInv.icdf(1.1).isNaN)
    assert(NormalInv.icdf(Double.NaN).isNaN)
  }

  test("tails are handled by the tail branches") {
    assert(NormalInv.icdf(1e-8) < -5.0)
    assert(NormalInv.icdf(1 - 1e-8) > 5.0)
  }
}
