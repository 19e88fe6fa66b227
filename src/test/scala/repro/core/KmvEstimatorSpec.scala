package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** The KMV-family estimators retained by the sketch (§2.1, §3.3):
  * distinct values, intersection size (Eq. 1) and containment.
  */
class KmvEstimatorSpec extends AnyFunSuite {

  private def sketchOf(keys: Seq[String], n: Int): CorrelationSketch =
    CorrelationSketch.fromColumns(keys.toArray, Array.fill(keys.size)(1.0), n)

  test("distinct estimate is exact for sketches holding all keys") {
    val sk = sketchOf((0 until 37).map(i => s"d$i"), 64)
    assert(sk.distinctEstimate == 37.0)
  }

  test("distinct estimate is exact even with repeated keys") {
    val keys = (0 until 20).flatMap(i => Seq(s"d$i", s"d$i"))
    assert(sketchOf(keys, 64).distinctEstimate == 20.0)
  }

  test("truncated distinct estimate approximates the true cardinality") {
    val trueD = 20000
    val sk = sketchOf((0 until trueD).map(i => s"card$i"), 256)
    val est = sk.distinctEstimate
    assert(math.abs(est - trueD) / trueD < 0.2, s"estimate $est vs $trueD")
  }

  test("distinct estimate improves with sketch size") {
    val trueD = 20000
    val keys = (0 until trueD).map(i => s"card$i")
    val err = (n: Int) => math.abs(sketchOf(keys, n).distinctEstimate - trueD) / trueD
    assert(err(1024) < 0.1)
  }

  test("intersection estimate is exact when both sketches are exact") {
    val a = sketchOf((0 until 30).map(i => s"i$i"), 64)
    val b = sketchOf((10 until 50).map(i => s"i$i"), 64)
    assert(CorrelationSketch.intersectionEstimate(a, b) == 20.0)
    // hashes of opposite sign more than 2^31 apart must still be ordered right
    val wide = CorrelationSketch(64, Array(-2000000000, 2000000000), Array(1.0, 2.0),
      xMin = 1.0, xMax = 2.0, exact = true, rows = 2L)
    val one = CorrelationSketch(64, Array(2000000000), Array(1.0),
      xMin = 1.0, xMax = 1.0, exact = true, rows = 1L)
    assert(CorrelationSketch.intersectionEstimate(wide, one) == 1.0)
    assert(CorrelationSketch.containmentEstimate(one, wide) == 1.0)
  }

  test("intersection estimate approximates true overlap for truncated sketches") {
    val a = sketchOf((0 until 10000).map(i => s"ov$i"), 512)
    val b = sketchOf((5000 until 15000).map(i => s"ov$i"), 512)
    val est = CorrelationSketch.intersectionEstimate(a, b)
    assert(math.abs(est - 5000) / 5000 < 0.3, s"estimate $est vs 5000")
  }

  test("intersection estimate of disjoint sets is zero-ish") {
    val a = sketchOf((0 until 5000).map(i => s"xa$i"), 256)
    val b = sketchOf((0 until 5000).map(i => s"xb$i"), 256)
    val est = CorrelationSketch.intersectionEstimate(a, b)
    assert(est <= 200.0, s"estimate $est for disjoint sets")
  }

  test("containment of a subset in its superset is 1 (exact sketches)") {
    val sub = sketchOf((0 until 20).map(i => s"c$i"), 64)
    val sup = sketchOf((0 until 40).map(i => s"c$i"), 64)
    assert(CorrelationSketch.containmentEstimate(sub, sup) == 1.0)
  }

  test("containment is asymmetric") {
    val sub = sketchOf((0 until 20).map(i => s"c$i"), 64)
    val sup = sketchOf((0 until 40).map(i => s"c$i"), 64)
    assert(CorrelationSketch.containmentEstimate(sup, sub) == 0.5)
  }

  test("containment estimate stays within [0, 1] for truncated sketches") {
    val a = sketchOf((0 until 8000).map(i => s"jc$i"), 128)
    val b = sketchOf((4000 until 20000).map(i => s"jc$i"), 128)
    val est = CorrelationSketch.containmentEstimate(a, b)
    assert(est >= 0.0 && est <= 1.0)
  }

  test("empty sketches produce zero estimates") {
    val e = sketchOf(Seq.empty, 16)
    val a = sketchOf(Seq("a"), 16)
    assert(CorrelationSketch.intersectionEstimate(e, a) == 0.0)
    assert(CorrelationSketch.containmentEstimate(e, a) == 0.0)
  }
}
