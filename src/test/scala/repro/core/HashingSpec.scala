package repro.core

import org.scalacheck.Prop
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport

class HashingSpec extends AnyFunSuite with PropSupport {

  test("h is deterministic") {
    assert(Hashing.h("2021-01") == Hashing.h("2021-01"))
    assert(Hashing.h("") == Hashing.h(""))
  }

  test("h distinguishes typical key strings") {
    val keys = (0 until 5000).map(i => s"key-$i")
    assert(keys.map(Hashing.h).distinct.size == keys.size)
  }

  test("h differs across case and whitespace variants") {
    assert(Hashing.h("NYC") != Hashing.h("nyc"))
    assert(Hashing.h("a b") != Hashing.h("ab"))
  }

  test("hu is deterministic in the key hash") {
    assert(Hashing.hu(12345) == Hashing.hu(12345))
    assert(Hashing.hu(Int.MinValue) == Hashing.hu(Int.MinValue))
  }

  test("hu maps into [0, 1) for all int inputs (property)") {
    checkProp(Prop.forAll { (h: Int) =>
      val u = Hashing.hu(h)
      u >= 0.0 && u < 1.0
    })
  }

  test("hu spreads sequential hashes across the whole interval") {
    // Fibonacci hashing's selling point: consecutive integers do not
    // cluster in a corner of the unit interval.
    val us = (0 until 100).map(Hashing.hu)
    assert(us.max - us.min > 0.8, s"span ${us.max - us.min}")
    val deciles = us.map(u => math.min(9, (u * 10).toInt)).distinct
    assert(deciles.size >= 8, s"only ${deciles.size} deciles occupied")
  }

  test("hu is approximately uniform: mean near 1/2") {
    val n = 20000
    val mean = (0 until n).map(i => Hashing.hu(Hashing.h(s"k$i"))).sum / n
    assert(math.abs(mean - 0.5) < 0.01, s"mean $mean")
  }

  test("hu is approximately uniform: decile occupancy balanced") {
    val n = 20000
    val counts = new Array[Int](10)
    (0 until n).foreach { i =>
      counts(math.min(9, (Hashing.hu(Hashing.h(s"id$i")) * 10).toInt)) += 1
    }
    counts.foreach { c =>
      assert(math.abs(c - n / 10.0) < n * 0.01, s"decile count $c far from ${n / 10}")
    }
  }

  test("hu has no duplicate values over distinct hashes (sample)") {
    val us = (0 until 100000).map(Hashing.hu)
    assert(us.distinct.size == us.size)
  }

  test("g composes h and hu") {
    checkProp(Prop.forAll { (s: String) =>
      Hashing.g(s) == Hashing.hu(Hashing.h(s))
    })
  }

  test("ordering by hu is stable across runs (selection determinism)") {
    val keys = (0 until 1000).map(i => s"stab$i")
    val pick1 = keys.sortBy(Hashing.g).take(10)
    val pick2 = keys.sortBy(Hashing.g).take(10)
    assert(pick1 == pick2)
  }
}
