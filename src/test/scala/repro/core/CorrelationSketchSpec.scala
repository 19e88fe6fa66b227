package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures.{bottomK, keySketch, same}

class CorrelationSketchSpec extends AnyFunSuite {

  private def keysOf(n: Int, prefix: String = "k") = Array.tabulate(n)(i => s"$prefix$i")

  test("sketch size never exceeds maxSize") {
    val sk = keySketch(keysOf(1000), 64)
    assert(sk.size == 64)
  }

  test("sketch with fewer distinct keys than maxSize keeps all of them and is exact") {
    val sk = CorrelationSketch.fromColumns(keysOf(10), Array.tabulate(10)(_.toDouble), 64)
    assert(sk.size == 10)
    assert(sk.exact)
  }

  test("sketch over more distinct keys than maxSize is not exact") {
    val sk = keySketch(keysOf(500), 64)
    assert(!sk.exact)
  }

  test("kept keys are exactly the maxSize smallest by hu") {
    val keys = keysOf(300)
    val sk = keySketch(keys, 32, value = 0.0)
    val expected = bottomK(keys.map(Hashing.h), 32).toSet
    assert(sk.keyHashes.toSet == expected)
  }

  test("keyHashes are sorted ascending") {
    val sk = keySketch(keysOf(200), 50)
    assert(sk.keyHashes.toSeq == sk.keyHashes.sorted.toSeq)
  }

  test("threshold is the maximum hu over kept keys") {
    val sk = keySketch(keysOf(200), 50)
    assert(sk.threshold == sk.keyHashes.map(Hashing.hu).max)
  }

  test("values align with their key hashes") {
    val keys = keysOf(100)
    val vals = Array.tabulate(100)(_.toDouble)
    val sk = CorrelationSketch.fromColumns(keys, vals, 100)
    val lookup = keys.zip(vals).map { case (k, v) => Hashing.h(k) -> v }.toMap
    sk.keyHashes.zip(sk.values).foreach { case (h, v) => assert(lookup(h) == v) }
  }

  test("repeated keys aggregate with mean by default") {
    val keys = Array("a", "b", "a", "a", "b")
    val vals = Array(1.0, 10.0, 2.0, 3.0, 20.0)
    val sk = CorrelationSketch.fromColumns(keys, vals, 8)
    val byHash = sk.keyHashes.zip(sk.values).toMap
    assert(byHash(Hashing.h("a")) == 2.0)
    assert(byHash(Hashing.h("b")) == 15.0)
  }

  test("repeated keys aggregate with sum / count / min / max when requested") {
    val keys = Array("a", "a", "a")
    val vals = Array(1.0, 5.0, 3.0)
    def value(agg: AggFn): Double = {
      val sk = CorrelationSketch.fromColumns(keys, vals, 4, agg)
      sk.values(0)
    }
    assert(value(AggFn.Sum) == 9.0)
    assert(value(AggFn.Count) == 3.0)
    assert(value(AggFn.Min) == 1.0)
    assert(value(AggFn.Max) == 5.0)
  }

  test("xMin/xMax track the global value range over all rows, not just kept keys") {
    val keys = keysOf(1000)
    val vals = Array.tabulate(1000)(_.toDouble)
    val sk = CorrelationSketch.fromColumns(keys, vals, 16)
    assert(sk.xMin == 0.0)
    assert(sk.xMax == 999.0)
  }

  test("rows counts every input row including repeats") {
    val sk = CorrelationSketch.fromColumns(Array("a", "a", "b"), Array(1.0, 2.0, 3.0), 4)
    assert(sk.rows == 3L)
  }

  test("construction is input-order independent") {
    val keys = keysOf(400)
    val vals = Array.tabulate(400)(i => i * 0.5)
    val sk1 = CorrelationSketch.fromColumns(keys, vals, 64)
    val perm = new scala.util.Random(5).shuffle(keys.indices.toList).toArray
    val sk2 = CorrelationSketch.fromColumns(perm.map(keys(_)), perm.map(vals(_)), 64)
    assert(sk1.keyHashes.toSeq == sk2.keyHashes.toSeq)
    assert(sk1.values.toSeq == sk2.values.toSeq)
    assert(sk1.xMin == sk2.xMin && sk1.xMax == sk2.xMax)
  }

  test("empty input yields an empty sketch") {
    val sk = CorrelationSketch.fromColumns(Array.empty[String], Array.empty[Double], 16)
    assert(sk.isEmpty && sk.size == 0 && sk.rows == 0L)
  }

  test("misaligned columns are rejected") {
    intercept[IllegalArgumentException] {
      CorrelationSketch.fromColumns(Array("a"), Array(1.0, 2.0), 4)
    }
  }

  test("maxSize must be positive") {
    intercept[IllegalArgumentException] { new SketchBuffer(0) }
  }

  test("contains answers membership by hash") {
    val sk = CorrelationSketch.fromColumns(Array("x", "y"), Array(1.0, 2.0), 4)
    assert(sk.contains(Hashing.h("x")))
    assert(!sk.contains(Hashing.h("zzz")))
  }

  test("a key ranked in the bottom-n is never lost to intermediate pruning") {
    // Stream 10k keys through a size-8 sketch; the 8 globally-smallest-hu
    // keys must survive regardless of arrival position.
    val keys = keysOf(10000, "p")
    val sk = keySketch(keys, 8)
    val expect = bottomK(keys.map(Hashing.h), 8).toSet
    assert(sk.keyHashes.toSet == expect)
  }

  test("sketch join pairs values for common hashes only") {
    val a = CorrelationSketch.fromColumns(Array("a", "b", "c"), Array(1.0, 2.0, 3.0), 8)
    val b = CorrelationSketch.fromColumns(Array("b", "c", "d"), Array(20.0, 30.0, 40.0), 8)
    val sj = CorrelationSketch.join(a, b)
    assert(sj.n == 2)
    val pairs = sj.xs.zip(sj.ys).toSet
    assert(pairs == Set((2.0, 20.0), (3.0, 30.0)))
  }

  test("sketch join carries the combined value range") {
    val a = CorrelationSketch.fromColumns(Array("a", "b"), Array(-5.0, 2.0), 8)
    val b = CorrelationSketch.fromColumns(Array("a", "b"), Array(1.0, 99.0), 8)
    val sj = CorrelationSketch.join(a, b)
    assert(sj.cLow == -5.0 && sj.cHigh == 99.0)
  }

  test("sketch join with disjoint keys is empty") {
    val a = CorrelationSketch.fromColumns(Array("a1", "a2"), Array(1.0, 2.0), 8)
    val b = CorrelationSketch.fromColumns(Array("b1", "b2"), Array(1.0, 2.0), 8)
    assert(CorrelationSketch.join(a, b).n == 0)
  }

  /** The sketch join as first written: one merge appending to three doubling builders. */
  private def referenceJoin(a: CorrelationSketch, b: CorrelationSketch): SketchJoin = {
    val hs = scala.collection.mutable.ArrayBuilder.make[Int]
    val xs = scala.collection.mutable.ArrayBuilder.make[Double]
    val ys = scala.collection.mutable.ArrayBuilder.make[Double]
    var i = 0; var j = 0
    while (i < a.size && j < b.size) {
      val ha = a.keyHashes(i); val hb = b.keyHashes(j)
      if (ha == hb) { hs += ha; xs += a.values(i); ys += b.values(j); i += 1; j += 1 }
      else if (ha < hb) i += 1
      else j += 1
    }
    SketchJoin(hs.result(), xs.result(), ys.result(),
      cLow = math.min(a.xMin, b.xMin), cHigh = math.max(a.xMax, b.xMax))
  }

  test("sketch join equals the builder-based merge and fills exact-size arrays") {
    val rng = new java.util.SplittableRandom(17L)
    def sketchOf(keys: Seq[String], size: Int): CorrelationSketch =
      CorrelationSketch.fromColumns(keys.toArray, Array.fill(keys.size)(rng.nextGaussian()), size)
    def check(a: CorrelationSketch, b: CorrelationSketch): SketchJoin = {
      val got = CorrelationSketch.join(a, b)
      val want = referenceJoin(a, b)
      assert(got.keyHashes.sameElements(want.keyHashes) && got.xs.sameElements(want.xs) &&
        got.ys.sameElements(want.ys), s"${a.keyHashes.toSeq} vs ${b.keyHashes.toSeq}")
      // an empty side has a NaN range, so NaN counts as equal to NaN
      assert(same(got.cLow, want.cLow) && same(got.cHigh, want.cHigh))
      assert(got.keyHashes.length == want.n && got.xs.length == want.n && got.ys.length == want.n)
      got
    }
    val empty = sketchOf(Seq.empty, 16)
    var negAndPos = 0; var truncated = 0
    for (trial <- 0 until 1200) {
      val size = 1 + rng.nextInt(300)
      val nA = rng.nextInt(2 * size + 1)
      val nB = rng.nextInt(2 * size + 1)
      val start = if (trial % 4 == 0) nA else rng.nextInt(nA + 1) // every 4th pair is disjoint
      val a = sketchOf((0 until nA).map(i => s"j$i"), size)
      val b = sketchOf((start until start + nB).map(i => s"j$i"), 1 + rng.nextInt(300))
      val sj = check(a, b)
      if (trial % 4 == 0) assert(sj.n == 0)
      check(b, a)
      assert(check(a, a).n == a.size) // identical
      check(a, empty); check(empty, a)
      if (sj.keyHashes.exists(_ < 0) && sj.keyHashes.exists(_ > 0)) negAndPos += 1
      if (!a.exact && !b.exact) truncated += 1
    }
    assert(negAndPos > 100 && truncated > 100)
    // the merge compares signed hashes: extremes and ±1 around zero
    def ofHashes(hs: Int*): CorrelationSketch =
      CorrelationSketch(hs.toArray, hs.map(_ => rng.nextGaussian()).toArray, -3.0, 3.0, exact = true, rows = hs.size)
    val a = ofHashes(Int.MinValue, -5, -1, 0, 3, Int.MaxValue)
    val b = ofHashes(Int.MinValue, -1, 1, 3, 5, Int.MaxValue)
    assert(check(a, b).n == 4 && check(b, a).n == 4)
  }

  test("aggregation happens before selection truncation interacts with values") {
    // A repeated key kept in the sketch aggregates across ALL occurrences
    // even when thousands of other keys churn the buffer in between.
    val kept = "q0" // will be hashed; ensure it is in bottom-8 by brute force
    val others = (1 to 5000).map(i => s"q$i")
    val all = (Seq(kept) ++ others ++ Seq(kept)).toArray
    val vals = Array.tabulate(all.length)(i => if (all(i) == kept) 10.0 else 1.0)
    val sk = CorrelationSketch.fromColumns(all, vals, 8)
    if (sk.contains(Hashing.h(kept))) {
      val v = sk.keyHashes.zip(sk.values).toMap.apply(Hashing.h(kept))
      assert(v == 10.0) // mean of 10.0, 10.0
    }
    val expect = bottomK(all.map(Hashing.h), 8).toSet
    assert(sk.keyHashes.toSet == expect)
  }
}
