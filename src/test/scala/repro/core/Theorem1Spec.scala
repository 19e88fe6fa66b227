package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures.{bottomK, keySketch}
import repro.data.{FullJoin, TableGen}
import repro.stats.Correlations

/** Theorem 1: the sketch join is a uniform random sample of the paired
  * numeric values of T_{X⋈Y}. Tested both exactly (the sketch-join key set
  * is precisely the m smallest-g(k) keys of the true join, the structural
  * fact the proof establishes) and statistically (estimates converge).
  */
class Theorem1Spec extends AnyFunSuite {

  private def sbn(i: Int, n: Int, r: Double, c: Double) =
    TableGen.sbnPair(s"thm$i", n, r, c, seed = 1000L + i)

  test("sketch-join keys are exactly the m smallest g(k) of the true join keys") {
    val p = sbn(1, n = 4000, r = 0.5, c = 0.7)
    val ska = CorrelationSketch.fromColumns(p.x.keys, p.x.values, 128)
    val skb = CorrelationSketch.fromColumns(p.y.keys, p.y.values, 128)
    val sj = CorrelationSketch.join(ska, skb)
    val joinKeys = p.x.keys.toSet.intersect(p.y.keys.toSet).toSeq
    val m = sj.n
    assert(m > 0)
    val smallest = bottomK(joinKeys.map(Hashing.h), m).toSet
    assert(sj.keyHashes.toSet == smallest)
  }

  test("the structural property holds across sketch sizes") {
    val p = sbn(2, n = 2000, r = -0.3, c = 0.5)
    val joinKeys = p.x.keys.toSet.intersect(p.y.keys.toSet).toSeq
    for (n <- Seq(16, 64, 256)) {
      val sj = CorrelationSketch.join(
        CorrelationSketch.fromColumns(p.x.keys, p.x.values, n),
        CorrelationSketch.fromColumns(p.y.keys, p.y.values, n))
      val smallest = bottomK(joinKeys.map(Hashing.h), sj.n).toSet
      assert(sj.keyHashes.toSet == smallest, s"failed at sketch size $n")
    }
  }

  test("when sketches cover all keys the sketch join IS the full join") {
    val p = sbn(3, n = 300, r = 0.8, c = 0.9)
    val sj = CorrelationSketch.join(
      CorrelationSketch.fromColumns(p.x.keys, p.x.values, 1024),
      CorrelationSketch.fromColumns(p.y.keys, p.y.values, 1024))
    val (xs, ys) = FullJoin.joinedColumns(p.x, p.y)
    assert(sj.n == xs.length)
    val rSketch = Correlations.pearson(sj.xs, sj.ys)
    val rTrue = Correlations.pearson(xs, ys)
    assert(math.abs(rSketch - rTrue) < 1e-12)
  }

  test("sketch estimates converge to the true join correlation") {
    val p = sbn(4, n = 20000, r = 0.6, c = 0.8)
    val (xs, ys) = FullJoin.joinedColumns(p.x, p.y)
    val rTrue = Correlations.pearson(xs, ys)
    val errAt = (n: Int) => {
      val sj = CorrelationSketch.join(
        CorrelationSketch.fromColumns(p.x.keys, p.x.values, n),
        CorrelationSketch.fromColumns(p.y.keys, p.y.values, n))
      math.abs(Correlations.pearson(sj.xs, sj.ys) - rTrue)
    }
    assert(errAt(1024) < 0.1, s"err@1024=${errAt(1024)}")
  }

  test("dependent selection yields join samples near the sketch size, not n²/N") {
    // §3.1's motivating calculation: with shared keys and sketch size n out
    // of N keys, independent sampling would give ~n²/N common rows (≈ 3
    // here); hu-based selection gives ≈ n.
    val n = 128; val bigN = 5000
    val keys = Array.tabulate(bigN)(i => s"dep$i")
    val a = keySketch(keys, n)
    val b = keySketch(keys, n, value = 2.0)
    assert(CorrelationSketch.join(a, b).n == n)
  }

  test("join sample size scales with key overlap (Jaccard), as discussed in §3.1") {
    val shared = (0 until 2000).map(i => s"ov$i")
    val onlyA = (0 until 2000).map(i => s"a$i")
    val onlyB = (0 until 2000).map(i => s"b$i")
    val mk = (ks: Seq[String]) => keySketch(ks, 128)
    val high = CorrelationSketch.join(mk(shared), mk(shared)).n
    val low = CorrelationSketch.join(mk(shared ++ onlyA), mk(shared ++ onlyB)).n
    assert(high == 128)
    assert(low < high && low > 0, s"low-overlap join size $low")
  }

  test("sample mean of the sketch join is unbiased for the join population mean") {
    // Average the sketch-join mean over many independent SBN pairs and
    // compare with the corresponding true join means.
    val diffs = (0 until 40).map { i =>
      val p = sbn(100 + i, n = 3000, r = 0.0, c = 0.8)
      val sj = CorrelationSketch.join(
        CorrelationSketch.fromColumns(p.x.keys, p.x.values, 64),
        CorrelationSketch.fromColumns(p.y.keys, p.y.values, 64))
      val (xs, _) = FullJoin.joinedColumns(p.x, p.y)
      if (sj.n == 0 || xs.isEmpty) 0.0
      else sj.xs.sum / sj.n - xs.sum / xs.length
    }
    val meanDiff = diffs.sum / diffs.size
    assert(math.abs(meanDiff) < 0.05, s"mean sampling bias $meanDiff")
  }
}
