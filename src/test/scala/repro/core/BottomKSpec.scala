package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures.{HuTies, bottomK}
import repro.PropSupport

import scala.util.hashing.MurmurHash3

/** The bottom-k order of §3.1 (keys by hu, ties by hash), as the builder
  * applies it and as [[CorrelationSketch.kthKey]] cuts it.
  */
class BottomKSpec extends AnyFunSuite with PropSupport {

  /** A two-char key whose `Hashing.h` is `target`. MurmurHash3 hashes two
    * chars as one `mix` of their 32 bits and a `finalizeHash`; both are
    * invertible, so any hash has such a key (often a lone surrogate, which
    * is why these keys stay out of Spark).
    */
  private def keyWithHash(target: Int): String = {
    def inverse(m: Int): Int = { var x = m; for (_ <- 0 until 5) x *= 2 - m * x; x }
    def unshift(y: Int, s: Int): Int = { var x = y; var t = y >>> s; while (t != 0) { x ^= t; t >>>= s }; x }
    var h = unshift(target, 16) * inverse(0xc2b2ae35)
    h = unshift(h, 13) * inverse(0x85ebca6b)
    h = unshift(h, 16) ^ 2 // finalizeHash xors in the length
    h = Integer.rotateRight((h - 0xe6546b64) * inverse(5), 13) ^ MurmurHash3.stringSeed
    val data = Integer.rotateRight(h * inverse(0x1b873593), 15) * inverse(0xcc9e2d51)
    new String(Array((data >>> 16).toChar, (data & 0xffff).toChar))
  }

  test("a hu tie at the builder's cut keeps the smaller hash in every build path") {
    for ((t1, t2) <- HuTies; low <- Seq(0, 3, 20)) {
      val (k1, k2) = (keyWithHash(t1), keyWithHash(t2))
      assert(Hashing.h(k1) == t1 && Hashing.h(k2) == t2 && Hashing.hu(t1) == Hashing.hu(t2))
      val uT = Hashing.hu(t1)
      // `low` keys before the pair and maxSize = low + 1, so the cut falls
      // between the two tied keys; 2·maxSize keys after it force a prune
      val maxSize = low + 1
      val below = Iterator.from(0).map(i => s"lo$i").filter(Hashing.g(_) < uT).take(low).toSeq
      val above = Iterator.from(0).map(i => s"hi$i").filter(Hashing.g(_) > uT).take(2 * maxSize).toSeq
      def expected(keys: Seq[String]) = {
        val cut = bottomK(keys.map(Hashing.h), maxSize)
        assert(cut.contains(t1) && !cut.contains(t2))
        cut.sorted
      }
      def bufferOf(keys: Seq[String]) = { val b = new SketchBuffer(maxSize); keys.foreach(b.update(_, 1.0)); b }

      val local = below :+ k1 :+ k2
      val built = CorrelationSketch.fromColumns(local.toArray, Array.fill(local.size)(1.0), maxSize)
      assert(built.keyHashes.toSeq == expected(local), s"fromColumns, ties $t1/$t2, maxSize $maxSize")

      val stream = local ++ above
      val pruned = bufferOf(stream)
      assert(pruned.everTruncated && !pruned.entries.contains(t2), s"mid-stream prune, ties $t1/$t2")
      assert(pruned.result(AggFn.Mean).keyHashes.toSeq == expected(stream))

      for ((a, b) <- Seq((below :+ k1, k2 +: above), (k2 +: above, below :+ k1))) {
        val merged = bufferOf(a).merge(bufferOf(b)).result(AggFn.Mean)
        assert(merged.keyHashes.toSeq == expected(stream), s"merge, ties $t1/$t2, maxSize $maxSize")
      }
    }
  }

  test("the k-th key cuts the same keys as the (hu, hash) tuple sort, for every k (property)") {
    val hashesGen = for {
      n <- Gen.chooseNum(1, 300)
      ties <- Gen.someOf(HuTies.flatMap { case (t1, t2) => Seq(t1, t2) })
      rest <- Gen.listOfN(n, Gen.chooseNum(Int.MinValue, Int.MaxValue))
      seed <- Gen.long
    } yield new scala.util.Random(seed).shuffle((ties.toSeq ++ rest).distinct.take(n))
    checkProp(Prop.forAll(hashesGen) { hashes =>
      val arr = hashes.toArray
      Prop.all((1 to arr.length).map { k =>
        val kth = CorrelationSketch.kthKey(arr, k)
        val cut = arr.filter(CorrelationSketch.atOrBefore(_, kth)).sorted.toSeq
        Prop(cut == bottomK(hashes, k).sorted) :| s"k=$k of ${arr.length}"
      }: _*)
    })
  }
}
