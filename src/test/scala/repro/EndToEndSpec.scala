package repro

import repro.core.{CorrelationSketch, SparkSketches}
import repro.data.TableGen
import repro.eval.QueryLatencyEval
import repro.index.SketchIndex
import repro.rank.{CandidateEstimates, Ranker, Scoring}
import repro.stats.Correlations

/** Full pipeline: collection → distributed sketches → inverted index →
  * top-k join-correlation query → risk-aware ranking. The planted
  * strongly-correlated columns must surface at the top.
  */
class EndToEndSpec extends SparkSpec {

  private def tables = Fixtures.endToEndTables
  private lazy val sketches: Map[String, CorrelationSketch] =
    SparkSketches.buildAll(TableGen.toDF(spark, tables), "pair", "key", "value", 256)
  private lazy val byId = tables.map(t => t.id -> t).toMap

  /** Query whose group contains at least one candidate with |r| > 0.6. */
  private lazy val interestingQuery: (String, Seq[(String, Double)]) = {
    val found = tables.view.map { q =>
      val truths = tables.filter(c => c.id != q.id && Fixtures.keyOverlap(q, c) >= 3)
        .map(c => c.id -> Scoring.absOrZero(Fixtures.correlation(q, c)))
      q.id -> truths
    }.find(_._2.exists(_._2 > 0.6))
    assert(found.isDefined, "collection should plant a strong correlation")
    found.get
  }

  /** Every sketch but the interesting query's own: the indexed corpus. */
  private lazy val corpus = new SketchIndex(sketches - interestingQuery._1)

  /** Sketch-side estimates for the interesting query's top-100 hits. */
  private lazy val cands: Seq[CandidateEstimates] = {
    val qid = interestingQuery._1
    corpus.search(sketches(qid), topN = 100).map { h =>
      CandidateEstimates(h.id, sketches(qid), corpus.sketchOf(h.id),
        jcExact = Fixtures.jaccardContainment(byId(qid), byId(h.id)), seed = 3L)
    }
  }

  test("query retrieval returns only joinable group members") {
    val (qid, _) = interestingQuery
    val g = qid.split(':')(0)
    val hits = corpus.search(sketches(qid), topN = 100)
    assert(hits.nonEmpty)
    hits.foreach(h => assert(h.id.startsWith(g + ":"), s"cross-group hit ${h.id}"))
  }

  test("a top-k join-correlation query surfaces a strongly correlated column on top") {
    val (_, truths) = interestingQuery
    val truthMap = truths.toMap
    val ranked = Scoring.rank(cands, Ranker.Rp)
    val top3Truth = ranked.take(3).map { case (id, _) => truthMap.getOrElse(id, 0.0) }
    assert(top3Truth.max > 0.5,
      s"no strong truth in top 3: $top3Truth (best available ${truths.map(_._2).max})")
  }

  test("risk-aware ranking (r_p*ci_h) also surfaces strong candidates") {
    val (_, truths) = interestingQuery
    val truthMap = truths.toMap
    val ranked = Scoring.rank(cands, Ranker.RpCih)
    val top5Truth = ranked.take(5).map { case (id, _) => truthMap.getOrElse(id, 0.0) }
    assert(top5Truth.max > 0.5, s"top-5 truths: $top5Truth")
  }

  test("the timed §5.5 query ranks its hits as the r_p scorer does") {
    val qid = interestingQuery._1
    assert(QueryLatencyEval.query(corpus, sketches(qid)) == Scoring.rank(cands, Ranker.Rp).map(_._1))
  }

  test("sketch correlation estimates agree with full-join truth for large joins") {
    val (qid, truths) = interestingQuery
    val q = byId(qid)
    truths.foreach { case (cid, truth) =>
      val sj = CorrelationSketch.join(sketches(qid), sketches(cid))
      if (sj.n >= 100) {
        val est = math.abs(Correlations.pearson(sj.xs, sj.ys))
        assert(math.abs(est - truth) < 0.35,
          s"estimate $est vs truth $truth for $qid ⋈ $cid (n=${sj.n})")
      }
    }
    assert(q.rows > 0)
  }
}
