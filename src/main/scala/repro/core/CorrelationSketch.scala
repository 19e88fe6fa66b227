package repro.core

import scala.collection.mutable

/** Per-key aggregation state kept while a sketch is under construction.
  * Carries enough to finalize any [[AggFn]] and to merge across partitions.
  */
final class KeyState extends Serializable {
  // -0.0 is the additive identity: -0.0 + v == v bit for bit, even for v = ±0.0.
  var sum: Double = -0.0
  var count: Long = 0L
  var min: Double = Double.PositiveInfinity
  var max: Double = Double.NegativeInfinity

  def add(v: Double): Unit = {
    sum += v; count += 1L
    if (v < min) min = v
    if (v > max) max = v
  }
  def mergeWith(o: KeyState): Unit = {
    sum += o.sum; count += o.count
    if (o.min < min) min = o.min
    if (o.max > max) max = o.max
  }
}

/** Mutable, mergeable builder for a [[CorrelationSketch]] (§3.1).
  *
  * Maintains the keys with the smallest `hu` values seen so far, with
  * bounded memory: the key map is pruned back to `maxSize` entries whenever
  * it exceeds `2 * maxSize`. A key whose `hu` ranks among the `maxSize`
  * smallest of the whole stream is inserted at its first occurrence and
  * never evicted, so streaming aggregation of repeated keys is exact for
  * every key that survives into the final sketch.
  *
  * Also tracks the global value range [xMin, xMax] over *all* rows (one
  * pass, as in §4.2) which feeds the Hoeffding confidence bounds, and the
  * total row count.
  *
  * Rows whose value is NaN or ±Inf are dropped before they reach any of
  * this state: one such row would make its key's aggregate, and with it
  * every estimate and bound over a join containing that key, non-finite.
  */
final class SketchBuffer(val maxSize: Int) extends Serializable {
  require(maxSize >= 1, s"sketch size must be >= 1, got $maxSize")

  private[core] val entries = new mutable.HashMap[Int, KeyState]
  private[core] var everTruncated: Boolean = false
  var xMin: Double = Double.PositiveInfinity
  var xMax: Double = Double.NegativeInfinity
  var rows: Long = 0L

  def update(key: String, value: Double): Unit = if (java.lang.Double.isFinite(value)) {
    rows += 1L
    if (value < xMin) xMin = value
    if (value > xMax) xMax = value
    entries.getOrElseUpdate(Hashing.h(key), new KeyState).add(value)
    if (entries.size > 2 * maxSize) prune()
  }

  /** Drop all but the `maxSize` smallest-hu keys. Amortizes eviction. */
  private def prune(): Unit = {
    val kth = CorrelationSketch.kthKey(entries.keysIterator.toArray, maxSize)
    entries.filterInPlace((h, _) => CorrelationSketch.atOrBefore(h, kth))
    everTruncated = true
  }

  def merge(other: SketchBuffer): SketchBuffer = {
    require(other.maxSize == maxSize, "cannot merge sketches of different max size")
    other.entries.foreach { case (h, st) => entries.getOrElseUpdate(h, new KeyState).mergeWith(st) }
    if (entries.size > 2 * maxSize) prune()
    everTruncated ||= other.everTruncated
    rows += other.rows
    if (other.xMin < xMin) xMin = other.xMin
    if (other.xMax > xMax) xMax = other.xMax
    this
  }

  /** Finalize into an immutable sketch, aggregating each key with `agg`.
    * Prunes the buffer to its `maxSize` smallest-hu keys first.
    */
  def result(agg: AggFn): CorrelationSketch = {
    if (entries.size > maxSize) prune()
    val hashes = entries.keysIterator.toArray
    java.util.Arrays.sort(hashes) // by key hash, for O(n) merge-intersection
    CorrelationSketch(
      keyHashes = hashes,
      values = hashes.map(h => agg(entries(h))),
      xMin = if (rows == 0) Double.NaN else xMin,
      xMax = if (rows == 0) Double.NaN else xMax,
      exact = !everTruncated,
      rows = rows,
    )
  }
}

/** Immutable correlation sketch L⟨K,X⟩ (§3.1): the tuples ⟨h(k), x_k⟩
  * with minimum hu(h(k)), as many as the building [[SketchBuffer]]'s
  * `maxSize` allows, the column's global value range and row count, and
  * whether the sketch holds *all* distinct keys (`exact`).
  *
  * `keyHashes` is sorted ascending; `values(i)` is the aggregated numeric
  * value for `keyHashes(i)`. hu values are never stored — they are
  * recomputed from the key hash (Fig. 2 in the paper).
  */
final case class CorrelationSketch(
    keyHashes: Array[Int],
    values: Array[Double],
    xMin: Double,
    xMax: Double,
    exact: Boolean,
    rows: Long,
) extends Serializable {
  def size: Int = keyHashes.length
  def isEmpty: Boolean = size == 0

  /** U(k): the k-th smallest unit-hash, i.e. the largest hu in the sketch. */
  lazy val threshold: Double = {
    var m = 0.0
    var i = 0
    while (i < keyHashes.length) { val u = Hashing.hu(keyHashes(i)); if (u > m) m = u; i += 1 }
    m
  }

  /** Distinct-value estimate for the key column: exact when the sketch was
    * never truncated, else the unbiased KMV estimator (k−1)/U(k) [Beyer07].
    */
  def distinctEstimate: Double =
    if (exact) size.toDouble
    else (size - 1).toDouble / threshold

  def contains(hash: Int): Boolean = java.util.Arrays.binarySearch(keyHashes, hash) >= 0
}

/** A reconstructed uniform random sample of the joined table T_{X⋈Y}
  * (Theorem 1): paired aggregated values for every key hash present in
  * both sketches, plus the combined value range [cLow, cHigh] used by the
  * Hoeffding bounds (§4.3).
  */
final case class SketchJoin(
    keyHashes: Array[Int],
    xs: Array[Double],
    ys: Array[Double],
    cLow: Double,
    cHigh: Double,
) {
  def n: Int = keyHashes.length
}

object CorrelationSketch {

  /** Build a sketch from in-memory columns (single pass, streaming). */
  def fromColumns(keys: Array[String], values: Array[Double], maxSize: Int,
                  agg: AggFn = AggFn.Mean): CorrelationSketch = {
    require(keys.length == values.length, "key/value columns must align")
    val buf = new SketchBuffer(maxSize)
    var i = 0
    while (i < keys.length) { buf.update(keys(i), values(i)); i += 1 }
    buf.result(agg)
  }

  /** Join two sketches on their key hashes (§3.2, step 1). Both arrays are
    * sorted by hash, so this is a linear merge-intersection: one pass counts
    * the common hashes, a second fills arrays of exactly that size.
    */
  def join(a: CorrelationSketch, b: CorrelationSketch): SketchJoin = {
    val ka = a.keyHashes; val kb = b.keyHashes
    var n = 0
    var i = 0; var j = 0
    while (i < ka.length && j < kb.length) {
      val ha = ka(i); val hb = kb(j)
      if (ha == hb) { n += 1; i += 1; j += 1 }
      else if (ha < hb) i += 1
      else j += 1
    }
    val hs = new Array[Int](n)
    val xs = new Array[Double](n)
    val ys = new Array[Double](n)
    var m = 0
    i = 0; j = 0
    while (m < n) {
      val ha = ka(i); val hb = kb(j)
      if (ha == hb) { hs(m) = ha; xs(m) = a.values(i); ys(m) = b.values(j); m += 1; i += 1; j += 1 }
      else if (ha < hb) i += 1
      else j += 1
    }
    SketchJoin(hs, xs, ys, cLow = math.min(a.xMin, b.xMin), cHigh = math.max(a.xMax, b.xMax))
  }

  /** The bottom-k order of §3.1, shared by the builder and Eq. 1: keys by
    * hu, ties by hash. Returns the k-th of the distinct `hashes` in that
    * order, for 1 <= k <= hashes.length.
    */
  private[core] def kthKey(hashes: Array[Int], k: Int): Int = {
    val us = new Array[Double](hashes.length)
    var i = 0
    while (i < us.length) { us(i) = Hashing.hu(hashes(i)); i += 1 }
    java.util.Arrays.sort(us)
    val uK = us(k - 1)
    var below = k - 1
    while (below > 0 && us(below - 1) == uK) below -= 1
    // of the keys tied at U(k), the k-th is the (k − below)-th smallest hash
    hashes.filter(Hashing.hu(_) == uK).sorted.apply(k - 1 - below)
  }

  /** Whether `hash` is at or before `kth` in the bottom-k order. */
  private[core] def atOrBefore(hash: Int, kth: Int): Boolean = {
    val u = Hashing.hu(hash); val uK = Hashing.hu(kth)
    u < uK || (u == uK && hash <= kth)
  }

  /** Estimate of |K_A ∩ K_B| via Eq. 1: D̂∩ = (K∩/k)·(k−1)/U(k), where K∩
    * counts the common keys of the combined bottom-k sketch L = L_A ⊕ L_B
    * with k = min(k_A, k_B) (§2.1). Exact when both sketches are exact.
    */
  def intersectionEstimate(a: CorrelationSketch, b: CorrelationSketch): Double = {
    if (a.isEmpty || b.isEmpty) return 0.0
    val (common, onlyB) = b.keyHashes.partition(a.contains)
    if (a.exact && b.exact) return common.length.toDouble
    val k = math.min(a.size, b.size)
    val kth = kthKey(a.keyHashes ++ onlyB, k)
    val kInter = common.count(atOrBefore(_, kth))
    if (k <= 1) kInter.toDouble
    else kInter.toDouble / k * ((k - 1).toDouble / Hashing.hu(kth))
  }

  /** Estimated Jaccard containment of A's keys in B: D̂∩ / D̂_A. */
  def containmentEstimate(a: CorrelationSketch, b: CorrelationSketch): Double = {
    if (a.isEmpty) return 0.0
    val da = a.distinctEstimate
    if (da <= 0) 0.0 else math.min(1.0, intersectionEstimate(a, b) / da)
  }
}
