package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport
import repro.data.{FullJoin, KVTable}

/** Merge semantics: distributed partial builds must agree with a
  * sequential scan — the property the Spark aggregator relies on.
  */
class SketchMergeSpec extends AnyFunSuite with PropSupport {

  private val kvGen: Gen[List[(String, Double)]] =
    Gen.listOf(for {
      k <- Gen.chooseNum(0, 40).map(i => s"k$i")
      v <- Gen.chooseNum(-100.0, 100.0)
    } yield (k, v))

  private def build(kvs: Seq[(String, Double)], n: Int): CorrelationSketch =
    CorrelationSketch.fromColumns(kvs.map(_._1).toArray, kvs.map(_._2).toArray, n)

  private def buildBuffer(kvs: Seq[(String, Double)], n: Int): SketchBuffer = {
    val b = new SketchBuffer(n)
    kvs.foreach { case (k, v) => b.update(k, v) }
    b
  }

  private def sameSketch(a: CorrelationSketch, b: CorrelationSketch): Prop = {
    val hashesEq = a.keyHashes.toSeq == b.keyHashes.toSeq
    val valuesEq = a.values.zip(b.values).forall { case (x, y) =>
      x == y || math.abs(x - y) < 1e-9
    }
    val metaEq = a.rows == b.rows && a.exact == b.exact &&
      ((a.rows == 0) || (a.xMin == b.xMin && a.xMax == b.xMax))
    Prop(hashesEq && valuesEq && metaEq) :| s"a=${a.keyHashes.toSeq} b=${b.keyHashes.toSeq}"
  }

  test("split-and-merge equals sequential build (property)") {
    checkProp(Prop.forAll(kvGen, Gen.chooseNum(1, 16)) { (kvs, n) =>
      val seq = build(kvs, n)
      val (l, r) = kvs.splitAt(kvs.length / 2)
      val merged = buildBuffer(l, n).merge(buildBuffer(r, n)).result(AggFn.Mean)
      sameSketch(seq, merged)
    })
  }

  test("merge is commutative (property)") {
    checkProp(Prop.forAll(kvGen, kvGen, Gen.chooseNum(1, 12)) { (a, b, n) =>
      val ab = buildBuffer(a, n).merge(buildBuffer(b, n)).result(AggFn.Mean)
      val ba = buildBuffer(b, n).merge(buildBuffer(a, n)).result(AggFn.Mean)
      sameSketch(ab, ba)
    })
  }

  test("merge is associative up to the sequential result (property)") {
    checkProp(Prop.forAll(kvGen, kvGen, kvGen, Gen.chooseNum(1, 12)) { (a, b, c, n) =>
      val left = buildBuffer(a, n).merge(buildBuffer(b, n)).merge(buildBuffer(c, n))
        .result(AggFn.Mean)
      val right = buildBuffer(a, n)
        .merge(buildBuffer(b, n).merge(buildBuffer(c, n)))
        .result(AggFn.Mean)
      sameSketch(left, right)
    })
  }

  test("merging with an empty buffer is identity (property)") {
    checkProp(Prop.forAll(kvGen, Gen.chooseNum(1, 12)) { (kvs, n) =>
      val merged = buildBuffer(kvs, n).merge(new SketchBuffer(n)).result(AggFn.Mean)
      sameSketch(build(kvs, n), merged)
    })
  }

  test("three-way split equals sequential build (property)") {
    checkProp(Prop.forAll(kvGen, Gen.chooseNum(1, 10)) { (kvs, n) =>
      val third = math.max(1, kvs.length / 3)
      val parts = kvs.grouped(third).toList
      val merged = parts.map(buildBuffer(_, n))
        .foldLeft(new SketchBuffer(n))(_ merge _)
        .result(AggFn.Mean)
      sameSketch(build(kvs, n), merged)
    })
  }

  test("merge rejects mismatched max sizes") {
    intercept[IllegalArgumentException] {
      new SketchBuffer(4).merge(new SketchBuffer(8))
    }
  }

  test("merge accumulates row counts and ranges") {
    val a = buildBuffer(Seq(("a", 1.0), ("b", -3.0)), 4)
    val b = buildBuffer(Seq(("c", 7.0)), 4)
    val m = a.merge(b).result(AggFn.Mean)
    assert(m.rows == 3L && m.xMin == -3.0 && m.xMax == 7.0)
  }

  test("sum aggregation also survives split-and-merge (property)") {
    checkProp(Prop.forAll(kvGen, Gen.chooseNum(1, 12)) { (kvs, n) =>
      val seq = CorrelationSketch.fromColumns(
        kvs.map(_._1).toArray, kvs.map(_._2).toArray, n, AggFn.Sum)
      val (l, r) = kvs.splitAt(kvs.length / 3)
      val merged = buildBuffer(l, n).merge(buildBuffer(r, n)).result(AggFn.Sum)
      sameSketch(seq, merged)
    })
  }

  test("a key whose values are all -0.0 keeps the sign of zero in build, merge and full join") {
    val negZero = java.lang.Double.doubleToRawLongBits(-0.0)
    val keys = Array("z", "z")
    val values = Array(-0.0, -0.0)
    def valueBits(sk: CorrelationSketch): Long =
      java.lang.Double.doubleToRawLongBits(sk.values(sk.keyHashes.indexOf(Hashing.h("z"))))
    for (agg <- Seq(AggFn.Mean, AggFn.Sum)) {
      assert(valueBits(CorrelationSketch.fromColumns(keys, values, 4, agg)) == negZero, s"fromColumns $agg")
      // only the other buffer holds the key
      val merged = buildBuffer(Seq(("a", 1.0)), 4).merge(buildBuffer(keys.zip(values).toSeq, 4)).result(agg)
      assert(valueBits(merged) == negZero, s"merge $agg")
      val truth = FullJoin.aggregateByKey(KVTable("t", keys, values), agg)("z")
      assert(java.lang.Double.doubleToRawLongBits(truth) == negZero, s"aggregateByKey $agg")
    }
  }
}
