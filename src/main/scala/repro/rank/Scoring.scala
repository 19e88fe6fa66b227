package repro.rank

import repro.core.CorrelationSketch
import repro.stats.{ConfidenceBounds, Correlations}

import java.util.SplittableRandom

/** Everything a scoring function may consume about one query/candidate
  * pair (§4.4). Each estimate is computed the first time it is read and
  * kept, so a ranker pays only for what it scores: s1, s2 and s4 never run
  * the PM1 bootstrap or ĵc. `jcExact` is the ground-truth Jaccard
  * containment baseline and is injected by the evaluation harness (it
  * requires the full data, like the paper's `jc`).
  */
final class CandidateEstimates(
    val id: String,
    val n: Int,
    rp0: => Double,
    rb0: => Double,
    pm1Low0: => Double,
    pm1High0: => Double,
    hfdLength0: => Double,
    jcEst0: => Double,
    val jcExact: Double,
) {
  lazy val rp: Double = rp0
  lazy val rb: Double = rb0
  lazy val pm1Low: Double = pm1Low0
  lazy val pm1High: Double = pm1High0
  lazy val hfdLength: Double = hfdLength0
  lazy val jcEst: Double = jcEst0

  /** A copy with some fields replaced; the others stay unevaluated until read. */
  def copy(id: String = id, n: Int = n, rp: => Double = rp, rb: => Double = rb,
           pm1Low: => Double = pm1Low, pm1High: => Double = pm1High,
           hfdLength: => Double = hfdLength, jcEst: => Double = jcEst,
           jcExact: Double = jcExact): CandidateEstimates =
    new CandidateEstimates(id, n, rp, rb, pm1Low, pm1High, hfdLength, jcEst, jcExact)
}

object CandidateEstimates {

  /** Estimates whose values are already known. */
  def apply(id: String, n: Int, rp: Double, rb: Double, pm1Low: Double, pm1High: Double,
            hfdLength: Double, jcEst: Double, jcExact: Double): CandidateEstimates =
    new CandidateEstimates(id, n, rp, rb, pm1Low, pm1High, hfdLength, jcEst, jcExact)

  /** Sketch-side estimates for a query/candidate sketch pair over their
    * sketch join; one PM1 bootstrap backs `rb`, `pm1Low` and `pm1High`.
    */
  def apply(id: String, query: CorrelationSketch, cand: CorrelationSketch,
            jcExact: Double, seed: Long): CandidateEstimates = {
    val sj = CorrelationSketch.join(query, cand)
    lazy val boot = Correlations.pm1Bootstrap(sj.xs, sj.ys, seed)
    new CandidateEstimates(id, sj.n,
      rp0 = Correlations.pearson(sj.xs, sj.ys),
      rb0 = boot.estimate,
      pm1Low0 = boot.ciLow,
      pm1High0 = boot.ciHigh,
      hfdLength0 = ConfidenceBounds.hoeffding(sj.xs, sj.ys, sj.cLow, sj.cHigh).hfdLength,
      jcEst0 = CorrelationSketch.containmentEstimate(query, cand),
      jcExact = jcExact)
  }
}

/** The scoring functions of §4.4 plus the §5.4 baselines. Each maps a list
  * of candidates to ranking scores; `cih` is list-dependent (its confidence
  * lengths are min-max normalized within the ranked list), so scoring is
  * defined over whole lists rather than single candidates.
  */
sealed trait Ranker { def name: String }

object Ranker {
  /** s1 = |r_p| (no risk penalization). */
  case object Rp extends Ranker { val name = "r_p" }
  /** s2 = |r_p| · se_z. */
  case object RpSez extends Ranker { val name = "r_p*se_z" }
  /** s3 = |r_b| · ci_b (PM1 bootstrap estimate and CI). */
  case object RbCib extends Ranker { val name = "r_b*ci_b" }
  /** s4 = |r_p| · ci_h (Hoeffding CI, list-normalized). */
  case object RpCih extends Ranker { val name = "r_p*ci_h" }
  /** Exact Jaccard containment of the query key set (joinability baseline). */
  case object Jc extends Ranker { val name = "jc" }
  /** Sketch-estimated Jaccard containment. */
  case object JcEst extends Ranker { val name = "jc_est" }
  /** Uniform random scores in [0, 1]. */
  case object Random extends Ranker { val name = "random" }

  val all: Seq[Ranker] = Seq(RpCih, RbCib, Rp, RpSez, Jc, JcEst, Random)
}

object Scoring {

  @inline private def absOrZero(r: Double): Double = if (r.isNaN) 0.0 else math.abs(r)

  /** se_z penalization factor: 1 − 1/√(max(4, n) − 3) (§4.4). */
  def sez(n: Int): Double = 1.0 - ConfidenceBounds.fisherZse(n)

  /** ci_b penalization factor: 1 − (ρ_PM1^high − ρ_PM1^low)/2, in [0, 1]. */
  def cib(pm1Low: Double, pm1High: Double): Double =
    math.max(0.0, math.min(1.0, 1.0 - (pm1High - pm1Low) / 2.0))

  /** ci_h penalization factors for a whole list: min-max normalization of
    * the ρ_HFD interval lengths (§4.4). Non-finite lengths (degenerate
    * samples) are treated as the maximum risk in the list.
    */
  def cih(lengths: Seq[Double]): Seq[Double] = {
    val finite = lengths.filter(java.lang.Double.isFinite)
    if (finite.isEmpty) return lengths.map(_ => 1.0)
    val maxLen = finite.max
    val minLen = finite.min
    val span = maxLen - minLen
    lengths.map { l =>
      val eff = if (java.lang.Double.isFinite(l)) l else maxLen
      if (span == 0.0) 1.0 else 1.0 - (eff - minLen) / span
    }
  }

  /** Score a candidate list under `ranker`; returns (id, score) sorted by
    * descending score with a deterministic id tie-break.
    */
  def rank(cands: Seq[CandidateEstimates], ranker: Ranker,
           seed: Long = 7L): Seq[(String, Double)] = {
    val scores: Seq[Double] = ranker match {
      case Ranker.Rp     => cands.map(c => absOrZero(c.rp))
      case Ranker.RpSez  => cands.map(c => absOrZero(c.rp) * sez(c.n))
      case Ranker.RbCib  => cands.map(c => absOrZero(c.rb) * cib(c.pm1Low, c.pm1High))
      case Ranker.RpCih  =>
        val pens = cih(cands.map(_.hfdLength))
        cands.lazyZip(pens).map((c, p) => absOrZero(c.rp) * p)
      case Ranker.Jc     => cands.map(_.jcExact)
      case Ranker.JcEst  => cands.map(_.jcEst)
      case Ranker.Random =>
        val rng = new SplittableRandom(seed)
        cands.map(_ => rng.nextDouble())
    }
    cands.map(_.id).zip(scores).sortBy { case (id, s) => (-s, id) }
  }
}
