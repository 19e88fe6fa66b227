package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures.{HuTies, bottomK, keySketch}

/** The KMV-family estimators retained by the sketch (§2.1, §3.3):
  * distinct values, intersection size (Eq. 1) and containment.
  */
class KmvEstimatorSpec extends AnyFunSuite {

  private def sketchOfHashes(hashes: Seq[Int], exact: Boolean): CorrelationSketch = {
    val hs = hashes.distinct.sorted.toArray
    CorrelationSketch(hs, Array.fill(hs.length)(1.0), xMin = 1.0, xMax = 1.0,
      exact = exact, rows = hs.length.toLong)
  }

  /** Eq. 1 as first written: the bottom-k of the boxed union of both hash
    * arrays, its membership found by binary search, and a full sketch join
    * to count the exact case.
    */
  private def referenceIntersection(a: CorrelationSketch, b: CorrelationSketch): Double = {
    if (a.isEmpty || b.isEmpty) return 0.0
    if (a.exact && b.exact) return CorrelationSketch.join(a, b).n.toDouble
    val k = math.min(a.size, b.size)
    val cut = bottomK(a.keyHashes ++ b.keyHashes, k)
    val kInter = cut.count(h => a.contains(h) && b.contains(h))
    val uK = Hashing.hu(cut.last)
    if (k <= 1) kInter.toDouble
    else kInter.toDouble / k * ((k - 1).toDouble / uK)
  }

  private def assertMatchesReference(a: CorrelationSketch, b: CorrelationSketch): Unit = {
    assert(CorrelationSketch.intersectionEstimate(a, b) == referenceIntersection(a, b),
      s"${a.keyHashes.toSeq} (exact ${a.exact}) vs ${b.keyHashes.toSeq} (exact ${b.exact})")
    assert(CorrelationSketch.intersectionEstimate(b, a) == referenceIntersection(b, a))
  }

  test("distinct estimate is exact for sketches holding all keys") {
    val sk = keySketch((0 until 37).map(i => s"d$i"), 64)
    assert(sk.distinctEstimate == 37.0)
  }

  test("distinct estimate is exact even with repeated keys") {
    val keys = (0 until 20).flatMap(i => Seq(s"d$i", s"d$i"))
    assert(keySketch(keys, 64).distinctEstimate == 20.0)
  }

  test("truncated distinct estimate approximates the true cardinality") {
    val trueD = 20000
    val sk = keySketch((0 until trueD).map(i => s"card$i"), 256)
    val est = sk.distinctEstimate
    assert(math.abs(est - trueD) / trueD < 0.2, s"estimate $est vs $trueD")
  }

  test("distinct estimate improves with sketch size") {
    val trueD = 20000
    val keys = (0 until trueD).map(i => s"card$i")
    val err = (n: Int) => math.abs(keySketch(keys, n).distinctEstimate - trueD) / trueD
    assert(err(1024) < 0.1)
  }

  test("intersection estimate is exact when both sketches are exact") {
    val a = keySketch((0 until 30).map(i => s"i$i"), 64)
    val b = keySketch((10 until 50).map(i => s"i$i"), 64)
    assert(CorrelationSketch.intersectionEstimate(a, b) == 20.0)
    // hashes of opposite sign more than 2^31 apart must still be ordered right
    val wide = CorrelationSketch(Array(-2000000000, 2000000000), Array(1.0, 2.0),
      xMin = 1.0, xMax = 2.0, exact = true, rows = 2L)
    val one = CorrelationSketch(Array(2000000000), Array(1.0),
      xMin = 1.0, xMax = 1.0, exact = true, rows = 1L)
    assert(CorrelationSketch.intersectionEstimate(wide, one) == 1.0)
    assert(CorrelationSketch.containmentEstimate(one, wide) == 1.0)
  }

  test("intersection estimate equals the reference estimator bit for bit") {
    val rng = new java.util.SplittableRandom(5L)
    for (trial <- 0 until 1200) {
      val shared = (trial % 11) / 10.0 // 0%, 10%, ..., 100% shared keys
      val size = 1 + rng.nextInt(300)
      val nA = if (trial % 50 == 0) 0 else 1 + rng.nextInt(2 * size) // some empty sides
      val nB = 1 + rng.nextInt(2 * size)
      if (trial % 2 == 0) {
        // arbitrary hash sets, each side independently exact or truncated
        val hsA = Seq.fill(math.min(nA, size))(rng.nextInt())
        val nShared = math.round(shared * math.min(hsA.size, size)).toInt
        val hsB = hsA.take(nShared) ++ Seq.fill(math.min(nB, size) - nShared)(rng.nextInt())
        assertMatchesReference(sketchOfHashes(hsA, rng.nextBoolean()),
          sketchOfHashes(hsB, rng.nextBoolean()))
      } else {
        // built bottom-k sketches of overlapping key ranges: exact below `size` keys
        val start = math.round((1.0 - shared) * nA).toInt
        assertMatchesReference(keySketch((0 until nA).map(i => s"r$i"), size),
          keySketch((start until start + nB).map(i => s"r$i"), size))
      }
    }
    // Pairs of distinct hashes with equal hu: the bottom-k breaks the tie by hash.
    var tiedAtUk = 0
    for ((t1, t2) <- HuTies) {
      assert(t1 != t2 && Hashing.hu(t1) == Hashing.hu(t2))
      for (_ <- 0 until 200) {
        val pool = Seq(t1, t2) ++ Seq.fill(4)(rng.nextInt())
        val a = sketchOfHashes(pool.filter(_ => rng.nextBoolean()) :+ pool(rng.nextInt(6)), false)
        val b = sketchOfHashes(pool.filter(_ => rng.nextBoolean()) :+ pool(rng.nextInt(6)), rng.nextBoolean())
        val union = (a.keyHashes ++ b.keyHashes).distinct
        val uK = union.map(Hashing.hu).sorted.apply(math.min(a.size, b.size) - 1)
        if (union.count(h => Hashing.hu(h) == uK) > 1) tiedAtUk += 1
        assertMatchesReference(a, b)
      }
    }
    assert(tiedAtUk > 0)
  }

  test("intersection estimate approximates true overlap for truncated sketches") {
    val a = keySketch((0 until 10000).map(i => s"ov$i"), 512)
    val b = keySketch((5000 until 15000).map(i => s"ov$i"), 512)
    val est = CorrelationSketch.intersectionEstimate(a, b)
    assert(math.abs(est - 5000) / 5000 < 0.3, s"estimate $est vs 5000")
  }

  test("intersection estimate of disjoint sets is zero-ish") {
    val a = keySketch((0 until 5000).map(i => s"xa$i"), 256)
    val b = keySketch((0 until 5000).map(i => s"xb$i"), 256)
    val est = CorrelationSketch.intersectionEstimate(a, b)
    assert(est <= 200.0, s"estimate $est for disjoint sets")
  }

  test("containment of a subset in its superset is 1 (exact sketches)") {
    val sub = keySketch((0 until 20).map(i => s"c$i"), 64)
    val sup = keySketch((0 until 40).map(i => s"c$i"), 64)
    assert(CorrelationSketch.containmentEstimate(sub, sup) == 1.0)
  }

  test("containment is asymmetric") {
    val sub = keySketch((0 until 20).map(i => s"c$i"), 64)
    val sup = keySketch((0 until 40).map(i => s"c$i"), 64)
    assert(CorrelationSketch.containmentEstimate(sup, sub) == 0.5)
  }

  test("containment estimate stays within [0, 1] for truncated sketches") {
    val a = keySketch((0 until 8000).map(i => s"jc$i"), 128)
    val b = keySketch((4000 until 20000).map(i => s"jc$i"), 128)
    val est = CorrelationSketch.containmentEstimate(a, b)
    assert(est >= 0.0 && est <= 1.0)
  }

  test("empty sketches produce zero estimates") {
    val e = keySketch(Seq.empty, 16)
    val a = keySketch(Seq("a"), 16)
    assert(CorrelationSketch.intersectionEstimate(e, a) == 0.0)
    assert(CorrelationSketch.containmentEstimate(e, a) == 0.0)
  }
}
