package repro.stats

import java.util.SplittableRandom

/** The five sample-correlation estimators evaluated in §5.3. All take
  * aligned arrays (a paired sample, e.g. a sketch join) and return a value
  * in [−1, 1], or NaN when the correlation is undefined (fewer than two
  * points, or a degenerate zero-variance column).
  */
object Correlations {

  /** (1) Pearson's sample correlation r (Eq. 3). */
  def pearson(x: Array[Double], y: Array[Double]): Double = {
    require(x.length == y.length, "paired sample must align")
    val n = x.length
    if (n < 2) return Double.NaN
    var sx = 0.0; var sy = 0.0
    var i = 0
    while (i < n) { sx += x(i); sy += y(i); i += 1 }
    val mx = sx / n; val my = sy / n
    var sxx = 0.0; var syy = 0.0; var sxy = 0.0
    i = 0
    while (i < n) {
      val dx = x(i) - mx; val dy = y(i) - my
      sxx += dx * dx; syy += dy * dy; sxy += dx * dy
      i += 1
    }
    if (sxx == 0.0 || syy == 0.0) Double.NaN
    else math.max(-1.0, math.min(1.0, sxy / math.sqrt(sxx) / math.sqrt(syy)))
  }

  /** (2) Spearman's rank correlation: Pearson over fractional ranks. */
  def spearman(x: Array[Double], y: Array[Double]): Double =
    pearson(Ranks.averageRanks(x), Ranks.averageRanks(y))

  /** (3) RIN: Pearson over rankit-transformed values (§5.3, [11, 14]). */
  def rin(x: Array[Double], y: Array[Double]): Double =
    pearson(Ranks.rankit(x), Ranks.rankit(y))

  /** Rousseeuw–Croux Qn scale estimator: the k-th order statistic of the
    * pairwise distances, k = C(h,2) with h = ⌊n/2⌋ + 1, scaled by 2.21914
    * for Gaussian consistency. Naive O(n² log n) — sketch samples are small.
    */
  def qnScale(x: Array[Double]): Double = {
    val n = x.length
    if (n < 2) return 0.0
    val dists = new Array[Double](n * (n - 1) / 2)
    var p = 0
    var i = 0
    while (i < n) {
      var j = i + 1
      while (j < n) { dists(p) = math.abs(x(i) - x(j)); p += 1; j += 1 }
      i += 1
    }
    java.util.Arrays.sort(dists)
    val h = n / 2 + 1
    val k = h * (h - 1) / 2
    2.21914 * dists(k - 1)
  }

  /** (4) Qn robust correlation (Shevlyakov–Oja [64]): with u, v the sums and
    * differences of the Qn-standardized variables,
    * r = (Qn(u)² − Qn(v)²) / (Qn(u)² + Qn(v)²).
    */
  def qnCorrelation(x: Array[Double], y: Array[Double]): Double = {
    require(x.length == y.length, "paired sample must align")
    val n = x.length
    if (n < 2) return Double.NaN
    val qx = qnScale(x); val qy = qnScale(y)
    if (qx == 0.0 || qy == 0.0) return Double.NaN
    val u = new Array[Double](n); val v = new Array[Double](n)
    var i = 0
    while (i < n) {
      val xs = x(i) / qx; val ys = y(i) / qy
      u(i) = xs + ys; v(i) = xs - ys
      i += 1
    }
    val qu2 = { val q = qnScale(u); q * q }
    val qv2 = { val q = qnScale(v); q * q }
    if (qu2 + qv2 == 0.0) Double.NaN
    else math.max(-1.0, math.min(1.0, (qu2 - qv2) / (qu2 + qv2)))
  }

  /** Result of the PM1 bootstrap: point estimate (mean of resample
    * correlations) and the modified-percentile 95% confidence interval.
    */
  final case class Bootstrap(estimate: Double, ciLow: Double, ciHigh: Double)

  /** PM1's resample count: Wilcox's adjusted percentiles are defined for B = 599 only. */
  private val B = 599

  /** (5) PM1 bootstrap [72 = Wilcox]: B=599 with-replacement resamples of
    * the paired sample; estimate = mean of resample Pearson correlations;
    * CI = Wilcox's sample-size-adjusted percentiles of the sorted resample
    * correlations. The paper's adaptive stopping rule is a performance
    * optimization for the same estimator; we use the canonical fixed B
    * (documented in DESIGN.md §4).
    */
  def pm1Bootstrap(x: Array[Double], y: Array[Double], seed: Long = 42L): Bootstrap = {
    require(x.length == y.length, "paired sample must align")
    val n = x.length
    if (n < 3) return Bootstrap(Double.NaN, -1.0, 1.0)
    val rng = new SplittableRandom(seed)
    val rs = new Array[Double](B)
    val bx = new Array[Double](n); val by = new Array[Double](n)
    var t = 0
    while (t < B) {
      var i = 0
      while (i < n) { val j = rng.nextInt(n); bx(i) = x(j); by(i) = y(j); i += 1 }
      val r = pearson(bx, by)
      rs(t) = if (r.isNaN) 0.0 else r
      t += 1
    }
    val mean = rs.sum / B
    java.util.Arrays.sort(rs)
    // Wilcox's adjusted percentile indices (1-based) for B = 599.
    val (lo, hi) =
      if (n < 40) (7, 593)
      else if (n < 80) (8, 592)
      else if (n < 180) (11, 588)
      else if (n < 250) (14, 585)
      else (15, 584)
    Bootstrap(mean, rs(lo - 1), rs(hi - 1))
  }
}
