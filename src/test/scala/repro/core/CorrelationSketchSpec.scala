package repro.core

import org.scalatest.funsuite.AnyFunSuite

class CorrelationSketchSpec extends AnyFunSuite {

  private def keysOf(n: Int, prefix: String = "k") = Array.tabulate(n)(i => s"$prefix$i")

  test("sketch size never exceeds maxSize") {
    val sk = CorrelationSketch.fromColumns(keysOf(1000), Array.fill(1000)(1.0), 64)
    assert(sk.size == 64)
  }

  test("sketch with fewer distinct keys than maxSize keeps all of them and is exact") {
    val sk = CorrelationSketch.fromColumns(keysOf(10), Array.tabulate(10)(_.toDouble), 64)
    assert(sk.size == 10)
    assert(sk.exact)
  }

  test("sketch over more distinct keys than maxSize is not exact") {
    val sk = CorrelationSketch.fromColumns(keysOf(500), Array.fill(500)(1.0), 64)
    assert(!sk.exact)
  }

  test("kept keys are exactly the maxSize smallest by hu") {
    val keys = keysOf(300)
    val sk = CorrelationSketch.fromColumns(keys, Array.fill(300)(0.0), 32)
    val expected = keys.map(Hashing.h).sortBy(h => (Hashing.hu(h), h)).take(32).toSet
    assert(sk.keyHashes.toSet == expected)
  }

  test("keyHashes are sorted ascending") {
    val sk = CorrelationSketch.fromColumns(keysOf(200), Array.fill(200)(1.0), 50)
    assert(sk.keyHashes.toSeq == sk.keyHashes.sorted.toSeq)
  }

  test("threshold is the maximum hu over kept keys") {
    val sk = CorrelationSketch.fromColumns(keysOf(200), Array.fill(200)(1.0), 50)
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
    val sk = CorrelationSketch.fromColumns(keys, Array.fill(10000)(1.0), 8)
    val expect = keys.map(Hashing.h).sortBy(h => (Hashing.hu(h), h)).take(8).toSet
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
    val expect = all.distinct.map(Hashing.h).sortBy(h => (Hashing.hu(h), h)).take(8).toSet
    assert(sk.keyHashes.toSet == expect)
  }
}
