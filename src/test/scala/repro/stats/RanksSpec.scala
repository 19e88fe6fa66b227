package repro.stats

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport

class RanksSpec extends AnyFunSuite with PropSupport {

  test("ranks of distinct values are the 1..n permutation") {
    assert(Ranks.averageRanks(Array(30.0, 10.0, 20.0)).toSeq == Seq(3.0, 1.0, 2.0))
  }

  test("ties receive the average of the spanned positions") {
    // values: 5,5,1 → positions of 5s are ranks 2 and 3 → 2.5 each
    assert(Ranks.averageRanks(Array(5.0, 5.0, 1.0)).toSeq == Seq(2.5, 2.5, 1.0))
  }

  test("all-equal input gives everyone the middle rank") {
    assert(Ranks.averageRanks(Array(7.0, 7.0, 7.0, 7.0)).toSeq == Seq(2.5, 2.5, 2.5, 2.5))
  }

  test("rank sum is n(n+1)/2 regardless of ties (property)") {
    checkProp(Prop.forAll(Gen.nonEmptyListOf(Gen.chooseNum(-5.0, 5.0))) { xs =>
      val n = xs.size
      val s = Ranks.averageRanks(xs.toArray).sum
      math.abs(s - n * (n + 1) / 2.0) < 1e-6
    })
  }

  test("ranks are monotone in the values (property)") {
    checkProp(Prop.forAll(Gen.listOfN(20, Gen.chooseNum(-100.0, 100.0))) { xs =>
      val arr = xs.toArray
      val r = Ranks.averageRanks(arr)
      arr.indices.forall { i =>
        arr.indices.forall { j =>
          !(arr(i) < arr(j)) || r(i) < r(j)
        }
      }
    })
  }

  test("empty and singleton inputs") {
    assert(Ranks.averageRanks(Array.empty[Double]).isEmpty)
    assert(Ranks.averageRanks(Array(42.0)).toSeq == Seq(1.0))
  }

  test("rankit output is symmetric for symmetric rank positions") {
    val r = Ranks.rankit(Array(1.0, 2.0, 3.0, 4.0, 5.0))
    assert(math.abs(r(2)) < 1e-12) // middle of 5 → Φ⁻¹(0.5) = 0
    assert(math.abs(r(0) + r(4)) < 1e-9)
    assert(math.abs(r(1) + r(3)) < 1e-9)
  }

  test("rankit preserves ordering") {
    val xs = Array(10.0, -3.0, 5.0, 99.0)
    val r = Ranks.rankit(xs)
    assert(xs.zip(r).sortBy(_._1).map(_._2).toSeq == r.sorted.toSeq)
  }

  test("rankit values are finite for n >= 1") {
    val r = Ranks.rankit(Array.tabulate(100)(_.toDouble))
    assert(r.forall(java.lang.Double.isFinite))
  }

  test("rankit of a large sample is approximately standard normal") {
    val r = Ranks.rankit(Array.tabulate(2001)(_.toDouble))
    val mean = r.sum / r.length
    val sd = math.sqrt(r.map(v => (v - mean) * (v - mean)).sum / r.length)
    assert(math.abs(mean) < 1e-9)
    assert(math.abs(sd - 1.0) < 0.05, s"sd $sd")
  }
}
