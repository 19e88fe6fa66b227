package corrbench

import repro.core.CorrelationSketch
import repro.index.SketchIndex
import repro.index.SketchIndex.Hit
import repro.rank.{CandidateEstimates, Ranker, Scoring}
import repro.stats.{ConfidenceBounds, Correlations}

/** The §5.5 query as a user calls it today, plus a traced copy of each op
  * that records a span around every call into a layer, and the brute-force
  * expectations the outputs are checked against.
  */
object QueryPath {
  val TopN = 100
  val Pm1Seed = 42L

  type Ranked = Seq[(String, Double)]

  final case class RpOut(hits: Seq[Hit], ranked: Ranked)

  final case class RiskOut(cands: Seq[CandidateEstimates], ranked: Ranked)

  @inline private def absOrZero(r: Double): Double = if (r.isNaN) 0.0 else math.abs(r)

  private def byScore(scored: Ranked): Ranked = scored.sortBy { case (id, s) => (-s, id) }

  /** s1: top-N by overlap, then |r_p| of each sketch join. */
  def rp(index: SketchIndex, q: CorrelationSketch): RpOut = {
    val hits = index.search(q, TopN)
    val scored = hits.map { h =>
      val sj = CorrelationSketch.join(q, index.sketchOf(h.id))
      h.id -> absOrZero(Correlations.pearson(sj.xs, sj.ys))
    }
    RpOut(hits, byScore(scored))
  }

  /** s4: top-N by overlap, then `CandidateEstimates` and the r_p·ci_h ranker. */
  def risk(index: SketchIndex, q: CorrelationSketch): Ranked = {
    val hits = index.search(q, TopN)
    val cands = hits.map(h => CandidateEstimates(h.id, q, index.sketchOf(h.id), jcExact = 0.0, seed = Pm1Seed))
    Scoring.rank(cands, Ranker.RpCih)
  }

  def rpTraced(tr: Trace, index: SketchIndex, q: CorrelationSketch): RpOut = {
    val op = tr.begin(Span.Op)
    val hits = tr.span(Span.Search)(index.search(q, TopN))
    val scored = hits.map { h =>
      val c = index.sketchOf(h.id)
      val sj = tr.span(Span.Join)(CorrelationSketch.join(q, c))
      tr.joinRows += sj.n
      h.id -> absOrZero(tr.span(Span.Pearson)(Correlations.pearson(sj.xs, sj.ys)))
    }
    val ranked = tr.span(Span.Sort)(byScore(scored))
    tr.finish(op)
    RpOut(hits, ranked)
  }

  /** The s4 op with `CandidateEstimates.apply` unrolled into its calls, so
    * each gets a span. [[unrolledMatches]] checks the unrolled record equals
    * what `apply` returns, so both measure the same work. */
  def riskTraced(tr: Trace, index: SketchIndex, q: CorrelationSketch): RiskOut = {
    val op = tr.begin(Span.Op)
    val hits = tr.span(Span.Search)(index.search(q, TopN))
    val cands = hits.map { h =>
      val c = index.sketchOf(h.id)
      val e = tr.begin(Span.Estimates)
      val sj = tr.span(Span.Join)(CorrelationSketch.join(q, c))
      tr.joinRows += sj.n
      val rp = tr.span(Span.Pearson)(Correlations.pearson(sj.xs, sj.ys))
      val boot = tr.span(Span.Pm1)(Correlations.pm1Bootstrap(sj.xs, sj.ys, Pm1Seed))
      val hfd = tr.span(Span.Hoeffding)(ConfidenceBounds.hoeffding(sj.xs, sj.ys, sj.cLow, sj.cHigh))
      val jc = tr.span(Span.Containment)(CorrelationSketch.containmentEstimate(q, c))
      val ce = CandidateEstimates(h.id, sj.n, rp, boot.estimate, boot.ciLow, boot.ciHigh,
        hfd.hfdLength, jc, jcExact = 0.0)
      tr.finish(e)
      ce
    }
    val ranked = tr.span(Span.Score)(Scoring.rank(cands, Ranker.RpCih))
    tr.finish(op)
    RiskOut(cands, ranked)
  }

  private def same(a: Double, b: Double): Boolean = a == b || (a.isNaN && b.isNaN)

  def unrolledMatches(index: SketchIndex, q: CorrelationSketch, out: RiskOut): Boolean =
    out.cands.forall { u =>
      val a = CandidateEstimates(u.id, q, index.sketchOf(u.id), jcExact = 0.0, seed = Pm1Seed)
      a.id == u.id && a.n == u.n && same(a.rp, u.rp) && same(a.rb, u.rb) &&
        same(a.pm1Low, u.pm1Low) && same(a.pm1High, u.pm1High) &&
        same(a.hfdLength, u.hfdLength) && same(a.jcEst, u.jcEst) && same(a.jcExact, u.jcExact)
    }

  /** What a correct answer to one query is, derived without the index. */
  final case class Expected(hits: Seq[Hit], overlapping: Int, rp: Ranked, risk: Ranked)

  private def overlap(a: CorrelationSketch, b: CorrelationSketch): Int = {
    var i = 0; var j = 0; var c = 0
    while (i < a.size && j < b.size) {
      val x = a.keyHashes(i); val y = b.keyHashes(j)
      if (x == y) { c += 1; i += 1; j += 1 } else if (x < y) i += 1 else j += 1
    }
    c
  }

  /** Brute-force top-N by overlap over every corpus sketch; r_p order from
    * each join's |pearson|; r_p·ci_h scores recomputed from the public stats
    * calls as |r_p| × `Scoring.cih` of the Hoeffding ρ_HFD lengths. */
  def expected(q: CorrelationSketch, corpus: Iterable[(String, CorrelationSketch)]): Expected = {
    val overlapping = corpus.iterator.map { case (id, c) => Hit(id, overlap(q, c)) }.filter(_.overlap > 0).toVector
    val hits = overlapping.sortBy(h => (-h.overlap, h.id)).take(TopN)
    val corpusMap = corpus.toMap
    val joins = hits.map(h => CorrelationSketch.join(q, corpusMap(h.id)))
    val rps = joins.map(sj => absOrZero(Correlations.pearson(sj.xs, sj.ys)))
    val pens = Scoring.cih(joins.map(sj => ConfidenceBounds.hoeffding(sj.xs, sj.ys, sj.cLow, sj.cHigh).hfdLength))
    val ids = hits.map(_.id)
    Expected(hits, overlapping.size,
      byScore(ids.zip(rps)),
      byScore(ids.lazyZip(rps).lazyZip(pens).map((id, r, p) => id -> r * p)))
  }

  def sameRanking(got: Ranked, want: Ranked): Boolean =
    got.length == want.length && got.lazyZip(want).forall { case ((ia, sa), (ib, sb)) => ia == ib && Checks.close(sa, sb) }

  def checkRp(out: RpOut, e: Expected): Boolean = out.hits == e.hits && sameRanking(out.ranked, e.rp)

  def checkRisk(ranked: Ranked, e: Expected): Boolean = sameRanking(ranked, e.risk)
}
