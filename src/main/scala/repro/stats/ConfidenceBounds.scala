package repro.stats

/** Distribution-free confidence bounds for join-correlation estimates
  * (§4.2–4.3): Fisher-Z standard error and the Hoeffding + union-bound
  * confidence interval over the five parameters {μ_A, μ_B, v_A, v_B, v_AB}
  * that Pearson's r is a function of.
  */
object ConfidenceBounds {

  /** Fisher's Z standard error SE_z = 1/√(n−3), floored at n=4 as in the
    * `se_z` penalization factor of §4.4.
    */
  def fisherZse(n: Int): Double = 1.0 / math.sqrt(math.max(4, n) - 3.0)

  /** Output of the §4.3 analysis.
    *
    * (rhoLow, rhoHigh) is the true probabilistic (1−α) interval from
    * Equations 6–7, intersected with [−1, 1] (always valid since |ρ| ≤ 1).
    *
    * (hfdLow, hfdHigh) is the ρ_HFD small-sample variant whose denominator
    * is the product of the *sample* standard deviations — not a true
    * probabilistic bound, but its length is a meaningful risk measure even
    * when the Hoeffding variance bounds collapse to zero (paper, end of
    * §4.3). Non-finite when the sample is degenerate.
    */
  final case class Hoeffding(rhoLow: Double, rhoHigh: Double,
                             hfdLow: Double, hfdHigh: Double) {
    def length: Double = rhoHigh - rhoLow
    def hfdLength: Double = hfdHigh - hfdLow
  }

  /** Compute the §4.3 bounds for a paired sample drawn (via the sketch
    * join) from columns whose values lie in [cLow, cHigh].
    *
    * The parameter intervals are intersected with their a-priori valid
    * ranges (means in [0, C], second moments in [0, C²], here with the
    * values scaled so that C = 1) — a strict
    * tightening permitted by the analysis, which avoids vacuous negative
    * lower bounds for nonnegative quantities.
    */
  def hoeffding(x: Array[Double], y: Array[Double],
                cLow: Double, cHigh: Double, alpha: Double = 0.05): Hoeffding = {
    require(x.length == y.length, "paired sample must align")
    val n = x.length
    if (n == 0 || !java.lang.Double.isFinite(cHigh - cLow))
      return Hoeffding(-1.0, 1.0, Double.NegativeInfinity, Double.PositiveInfinity)
    val c = cHigh - cLow
    if (c == 0.0) return Hoeffding(-1.0, 1.0, Double.NegativeInfinity, Double.PositiveInfinity)

    // Shift into [0, C] (§4.3 "Analysis") and scale by 1/C, so that C = 1:
    // A = (X − cLow)/C, B = (Y − cLow)/C. Pearson and its bounds are
    // scale-invariant, and C⁴ in the second-moment half-width would
    // overflow for C ≳ 1e77 (or underflow for C ≲ 1e-77).
    var mua = 0.0; var mub = 0.0; var va = 0.0; var vb = 0.0; var vab = 0.0
    var i = 0
    while (i < n) {
      val a = (x(i) - cLow) / c; val b = (y(i) - cLow) / c
      mua += a; mub += b; va += a * a; vb += b * b; vab += a * b
      i += 1
    }
    mua /= n; mub /= n; va /= n; vb /= n; vab /= n

    // Hoeffding half-width at level α/5 per parameter (union bound); with
    // C = 1 the means and the second moments share it.
    val t = math.sqrt(math.log(10.0 / alpha) / (2.0 * n))

    val muaLo = math.max(0.0, mua - t);  val muaHi = math.min(1.0, mua + t)
    val mubLo = math.max(0.0, mub - t);  val mubHi = math.min(1.0, mub + t)
    val vaLo  = math.max(0.0, va - t);   val vaHi  = math.min(1.0, va + t)
    val vbLo  = math.max(0.0, vb - t);   val vbHi  = math.min(1.0, vb + t)
    val vabLo = math.max(0.0, vab - t);  val vabHi = math.min(1.0, vab + t)

    val numLow  = vabLo - muaHi * mubHi
    val numHigh = vabHi - muaLo * mubLo
    val denLow  = math.sqrt(math.max(0.0, vaLo - muaHi * muaHi) *
                            math.max(0.0, vbLo - mubHi * mubHi))
    val denHigh = math.sqrt(math.max(0.0, vaHi - muaLo * muaLo) *
                            math.max(0.0, vbHi - mubLo * mubLo))

    def safeDiv(num: Double, den: Double, ifZero: Double): Double =
      if (den == 0.0) ifZero else num / den

    // Equations 6 and 7; a zero denominator yields the vacuous bound ∓1.
    val rhoLow  = if (numLow >= 0) safeDiv(numLow, denHigh, -1.0)
                  else safeDiv(numLow, denLow, -1.0)
    val rhoHigh = if (numHigh >= 0) safeDiv(numHigh, denLow, 1.0)
                  else safeDiv(numHigh, denHigh, 1.0)

    // ρ_HFD: replace denominator bounds with the sample std product.
    val sampleDen = math.sqrt(math.max(0.0, va - mua * mua)) *
                    math.sqrt(math.max(0.0, vb - mub * mub))
    val hfdLow  = safeDiv(numLow, sampleDen, Double.NegativeInfinity)
    val hfdHigh = safeDiv(numHigh, sampleDen, Double.PositiveInfinity)

    Hoeffding(
      rhoLow = math.max(-1.0, math.min(1.0, rhoLow)),
      rhoHigh = math.max(-1.0, math.min(1.0, rhoHigh)),
      hfdLow = hfdLow,
      hfdHigh = hfdHigh,
    )
  }
}
