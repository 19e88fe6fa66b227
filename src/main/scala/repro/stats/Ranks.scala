package repro.stats

/** Rank transformations used by the Spearman and RIN estimators (§5.3). */
object Ranks {

  /** Fractional (average) ranks, 1-based: ties receive the mean of the
    * positions they span, the standard convention for Spearman's ρ. NaNs
    * rank last, each at its own position in input order.
    */
  def averageRanks(xs: Array[Double]): Array[Double] = {
    val n = xs.length
    val sorted = xs.clone()
    java.util.Arrays.sort(sorted)
    val out = new Array[Double](n)
    // NaNs sort last: the k-th NaN ranks k places after the last other value
    var nanRank = lowerBound(sorted, Double.PositiveInfinity, inclusive = true)
    var i = 0
    while (i < n) {
      val v = xs(i)
      if (v.isNaN) { nanRank += 1; out(i) = nanRank }
      else {
        // sorted positions lo until hi (0-based) hold v; average of 1-based ranks
        val lo = lowerBound(sorted, v, inclusive = false)
        val hi = lowerBound(sorted, v, inclusive = true)
        out(i) = (lo + hi + 1) / 2.0
      }
      i += 1
    }
    out
  }

  /** Number of leading elements of `sorted` below `v`, or at most `v` when
    * `inclusive`; `==` ties −0.0 with 0.0, and NaN is never below `v`.
    */
  private def lowerBound(sorted: Array[Double], v: Double, inclusive: Boolean): Int = {
    var lo = 0
    var hi = sorted.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      val e = sorted(mid)
      if (e < v || (inclusive && e == v)) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Rankit / RIN transform (Bliss): h(x) = Φ⁻¹((r(x) − 1/2) / n). */
  def rankit(xs: Array[Double]): Array[Double] = {
    val n = xs.length
    averageRanks(xs).map(r => NormalInv.icdf((r - 0.5) / n))
  }
}
