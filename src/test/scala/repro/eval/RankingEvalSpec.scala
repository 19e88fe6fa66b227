package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures
import repro.rank.{Ranker, Scoring}

class RankingEvalSpec extends AnyFunSuite {

  private def tables = Fixtures.rankingTables
  private lazy val cases = RankingEval.buildCases(tables, Fixtures.sketches(tables, 128))
  private lazy val result = RankingEval.evaluate(cases)

  test("cases exclude the query table itself") {
    cases.foreach(qc => assert(!qc.cands.exists(_.id == qc.queryId)))
  }

  test("every query's candidates come from its own join group") {
    cases.foreach { qc =>
      val g = qc.queryId.split(':')(0)
      qc.cands.foreach(c => assert(c.id.startsWith(g + ":")))
    }
  }

  test("candidates, truths and jc equal the exact overlap, correlation and containment") {
    val byId = tables.map(t => t.id -> t).toMap
    val expected = tables.map { q =>
      q.id -> tables.filter(c => c.id != q.id && Fixtures.keyOverlap(q, c) >= 3).map(_.id)
    }.filter(_._2.nonEmpty)
    assert(cases.map(qc => qc.queryId -> qc.cands.map(_.id)) == expected)
    cases.foreach { qc =>
      val q = byId(qc.queryId)
      qc.cands.foreach { c =>
        assert(qc.truth(c.id) == Scoring.absOrZero(Fixtures.correlation(q, byId(c.id))), s"${qc.queryId} ${c.id}")
        assert(c.jcExact == Fixtures.jaccardContainment(q, byId(c.id)), s"${qc.queryId} ${c.id}")
      }
    }
  }

  test("ground-truth relevance values are absolute correlations in [0, 1]") {
    cases.foreach(_.truth.values.foreach(v => assert(v >= 0.0 && v <= 1.0)))
  }

  test("every ranker receives a score for every metric") {
    Ranker.all.foreach { r =>
      val s = result.scores(r)
      Seq(s.map75, s.map50, s.ndcg5, s.ndcg10).foreach(v => assert(!v.isNaN, r.name))
    }
  }

  test("scores are valid metric values in [0, 1]") {
    result.scores.values.foreach { s =>
      Seq(s.map75, s.map50, s.ndcg5, s.ndcg10).foreach(v => assert(v >= 0.0 && v <= 1.0 + 1e-9))
    }
  }

  test("correlation-aware rankers beat the joinability baseline (the paper's headline)") {
    val rp = result.scores(Ranker.Rp)
    val jc = result.scores(Ranker.Jc)
    assert(rp.map50 > jc.map50, s"rp=${rp.map50} jc=${jc.map50}")
    assert(rp.ndcg10 > jc.ndcg10)
  }

  test("improvement over jc is reported as a percentage") {
    val imp = result.improvementOverJc(Ranker.Rp, _.map50)
    assert(imp > 0.0)
    assert(result.improvementOverJc(Ranker.Jc, _.map50) == 0.0)
  }

  test("render produces all four sub-tables") {
    val out = RankingEval.render(result)
    assert(out.contains("MAP (r > .75)") && out.contains("MAP (r > .50)"))
    assert(out.contains("nDCG@5") && out.contains("nDCG@10"))
    Ranker.all.foreach(r => assert(out.contains(r.name)))
    val headers = out.linesIterator.filter(_.startsWith("ranker")).toSeq
    assert(headers.size == 4 && headers.forall(h => h.endsWith("% over jc") && !h.contains("%%")))
  }
}
