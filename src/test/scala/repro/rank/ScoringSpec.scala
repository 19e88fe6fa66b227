package repro.rank

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures.{endToEndTables, jaccardContainment, rankingTables, same, sketches}
import repro.core.CorrelationSketch
import repro.data.KVTable
import repro.eval.RankingEval
import repro.index.SketchIndex
import repro.stats.{ConfidenceBounds, Correlations}

class ScoringSpec extends AnyFunSuite {

  private def cand(id: String, n: Int = 50, rp: Double = 0.5, rb: Double = 0.5,
                   pm1Low: Double = 0.3, pm1High: Double = 0.7,
                   hfdLength: Double = 0.5, jcEst: Double = 0.5,
                   jcExact: Double = 0.5) =
    CandidateEstimates(id, n, rp, rb, pm1Low, pm1High, hfdLength, jcEst, jcExact)

  test("se_z penalization at the small-sample floor is zero") {
    assert(Scoring.sez(3) == 0.0)
    assert(Scoring.sez(4) == 0.0)
  }

  test("se_z penalization increases with n toward 1") {
    assert(Scoring.sez(7) == 0.5)
    assert(Scoring.sez(103) > Scoring.sez(7))
    assert(Scoring.sez(100000) > 0.99)
  }

  test("ci_b maps interval length to [0, 1]") {
    assert(Scoring.cib(-1.0, 1.0) == 0.0)
    assert(Scoring.cib(0.5, 0.5) == 1.0)
    assert(Scoring.cib(0.2, 0.6) == 0.8)
  }

  test("ci_h gives 1 to the tightest interval and 0 to the widest") {
    val pens = Scoring.cih(Seq(0.1, 0.5, 0.3))
    assert(pens == Seq(1.0, 0.0, 0.5))
  }

  test("ci_h treats non-finite lengths as maximum risk") {
    val pens = Scoring.cih(Seq(0.1, Double.PositiveInfinity, 0.5))
    assert(pens(0) == 1.0 && pens(1) == 0.0 && pens(2) == 0.0)
  }

  test("ci_h of identical lengths is all ones") {
    assert(Scoring.cih(Seq(0.4, 0.4, 0.4)) == Seq(1.0, 1.0, 1.0))
  }

  test("r_p ranker orders by absolute estimate") {
    val ranked = Scoring.rank(Seq(
      cand("weak", rp = 0.2), cand("neg", rp = -0.9), cand("mid", rp = 0.5)),
      Ranker.Rp)
    assert(ranked.map(_._1) == Seq("neg", "mid", "weak"))
  }

  test("NaN estimates score zero rather than poisoning the ranking") {
    val ranked = Scoring.rank(Seq(cand("nan", rp = Double.NaN), cand("ok", rp = 0.1)),
      Ranker.Rp)
    assert(ranked.map(_._1) == Seq("ok", "nan"))
    assert(ranked(1)._2 == 0.0)
  }

  test("r_p*se_z penalizes small join samples") {
    val ranked = Scoring.rank(Seq(
      cand("small-n", n = 4, rp = 0.9), cand("big-n", n = 1000, rp = 0.8)),
      Ranker.RpSez)
    assert(ranked.map(_._1) == Seq("big-n", "small-n"))
  }

  test("r_b*ci_b penalizes wide bootstrap intervals") {
    val ranked = Scoring.rank(Seq(
      cand("wide", rb = 0.9, pm1Low = -0.8, pm1High = 1.0),
      cand("tight", rb = 0.8, pm1Low = 0.7, pm1High = 0.9)),
      Ranker.RbCib)
    assert(ranked.map(_._1) == Seq("tight", "wide"))
  }

  test("r_p*ci_h penalizes wide hoeffding intervals") {
    val ranked = Scoring.rank(Seq(
      cand("wide", rp = 0.9, hfdLength = 3.0),
      cand("tight", rp = 0.8, hfdLength = 0.2),
      cand("mid", rp = 0.1, hfdLength = 1.0)),
      Ranker.RpCih)
    assert(ranked.head._1 == "tight")
  }

  test("jc rankers use the containment fields") {
    val cands = Seq(cand("a", jcExact = 0.9, jcEst = 0.1),
      cand("b", jcExact = 0.1, jcEst = 0.9))
    assert(Scoring.rank(cands, Ranker.Jc).head._1 == "a")
    assert(Scoring.rank(cands, Ranker.JcEst).head._1 == "b")
  }

  test("random ranker is deterministic under a seed and uniform-ish") {
    val cands = (0 until 100).map(i => cand(s"c$i"))
    val r1 = Scoring.rank(cands, Ranker.Random, seed = 5L)
    val r2 = Scoring.rank(cands, Ranker.Random, seed = 5L)
    assert(r1 == r2)
    val r3 = Scoring.rank(cands, Ranker.Random, seed = 6L)
    assert(r1.map(_._1) != r3.map(_._1))
    assert(r1.forall { case (_, s) => s >= 0.0 && s <= 1.0 })
  }

  test("score ties break deterministically by id") {
    val ranked = Scoring.rank(Seq(cand("b", rp = 0.5), cand("a", rp = 0.5)), Ranker.Rp)
    assert(ranked.map(_._1) == Seq("a", "b"))
  }

  test("CandidateEstimates computes a full bundle from sketches") {
    val keys = Array.tabulate(200)(i => s"ce$i")
    val xs = Array.tabulate(200)(_.toDouble)
    val ys = xs.map(v => 2 * v + 1)
    val q = CorrelationSketch.fromColumns(keys, xs, 64)
    val c = CorrelationSketch.fromColumns(keys, ys, 64)
    val est = CandidateEstimates("t", q, c, jcExact = 1.0, seed = 1L)
    assert(est.n == 64)
    assert(math.abs(est.rp - 1.0) < 1e-9)
    assert(est.jcEst > 0.9)
    assert(est.rb > 0.9)
  }

  test("all rankers produce a complete permutation of the candidates") {
    val cands = (0 until 10).map(i => cand(s"p$i", rp = i / 10.0, rb = i / 10.0))
    Ranker.all.foreach { r =>
      val ranked = Scoring.rank(cands, r)
      assert(ranked.map(_._1).sorted == cands.map(_.id).sorted.toSeq, s"ranker ${r.name}")
    }
  }

  test("empty, constant and one-key columns score finitely in [0, 1] under every ranker") {
    val keys = Array.tabulate(200)(i => s"ek$i")
    val tables = Seq(
      KVTable("empty", Array.empty, Array.empty),
      KVTable("constant", keys, Array.fill(200)(3.0)),
      KVTable("one-key", Array.fill(200)("ek7"), Array.tabulate(200)(_.toDouble)),
      KVTable("normal", keys, Array.tabulate(200)(i => math.sin(i.toDouble))),
      // the value range spans 2e308, beyond Double.MaxValue: Hoeffding is vacuous
      KVTable("huge", keys, Array.tabulate(200)(i => if (i % 3 == 0) -1e308 else 1e308)))
    val sks = sketches(tables, 64)
    for (q <- tables) {
      val cands = tables.map(c => CandidateEstimates(c.id, sks(q.id), sks(c.id),
        jcExact = jaccardContainment(q, c), seed = 1L))
      Ranker.all.foreach { r =>
        val ranked = Scoring.rank(cands, r)
        assert(ranked.size == tables.size)
        assert(ranked.forall { case (_, s) => s >= 0.0 && s <= 1.0 },
          s"query ${q.id}, ranker ${r.name}: $ranked")
      }
    }
  }

  /** `CandidateEstimates.apply` as first written: every estimate computed up front. */
  private def eagerEstimates(id: String, query: CorrelationSketch, cand: CorrelationSketch,
                             jcExact: Double, seed: Long): CandidateEstimates = {
    val sj = CorrelationSketch.join(query, cand)
    val rp = Correlations.pearson(sj.xs, sj.ys)
    val boot = Correlations.pm1Bootstrap(sj.xs, sj.ys, seed)
    val hfd = ConfidenceBounds.hoeffding(sj.xs, sj.ys, sj.cLow, sj.cHigh)
    CandidateEstimates(id, sj.n, rp, boot.estimate, boot.ciLow, boot.ciHigh, hfd.hfdLength,
      CorrelationSketch.containmentEstimate(query, cand), jcExact)
  }

  test("estimates computed on demand equal the eager ones in any read order and every ranking") {
    // The end-to-end collection: each query's top-100 hits from an index of the others.
    val e2eSketches = sketches(endToEndTables, 256)
    val e2eById = endToEndTables.map(t => t.id -> t).toMap
    val e2eLists = endToEndTables.map { q =>
      val corpus = new SketchIndex(e2eSketches - q.id)
      e2eSketches(q.id) -> corpus.search(e2eSketches(q.id), topN = 100).map { h =>
        (h.id, corpus.sketchOf(h.id), jaccardContainment(q, e2eById(h.id)))
      }
    }
    // The ranking collection: every truly joinable candidate of each query.
    val rkSketches = sketches(rankingTables, 128)
    val rkLists = RankingEval.buildCases(rankingTables, rkSketches).map { qc =>
      rkSketches(qc.queryId) -> qc.cands.map(c => (c.id, rkSketches(c.id), c.jcExact))
    }

    def sameAll(got: Seq[Double], want: Seq[Double]): Boolean =
      got.lazyZip(want).forall(same)
    var pairs = 0
    for (((q, list), li) <- (e2eLists ++ rkLists).zipWithIndex) {
      def estimates(make: (String, CorrelationSketch, CorrelationSketch, Double, Long) => CandidateEstimates) =
        list.zipWithIndex.map { case ((id, c, jc), i) => make(id, q, c, jc, 1000L * li + i) }
      val want = estimates(eagerEstimates)
      val rbFirst = estimates(CandidateEstimates.apply)
      val rpFirst = estimates(CandidateEstimates.apply)
      want.lazyZip(rbFirst).lazyZip(rpFirst).foreach { (w, x, y) =>
        assert(x.id == w.id && x.n == w.n && y.id == w.id && y.n == w.n)
        assert(sameAll(Seq(x.rb, x.pm1Low, x.pm1High, x.rp, x.hfdLength, x.jcEst, x.jcExact),
          Seq(w.rb, w.pm1Low, w.pm1High, w.rp, w.hfdLength, w.jcEst, w.jcExact)), w.id)
        assert(sameAll(Seq(y.rp, y.hfdLength, y.jcEst, y.pm1High, y.rb, y.pm1Low, y.jcExact),
          Seq(w.rp, w.hfdLength, w.jcEst, w.pm1High, w.rb, w.pm1Low, w.jcExact)), w.id)
        pairs += 1
      }
      Ranker.all.foreach { r =>
        assert(Scoring.rank(estimates(CandidateEstimates.apply), r) == Scoring.rank(want, r), r.name)
      }
    }
    assert(e2eLists.size == 40 && rkLists.nonEmpty && pairs > 500, s"$pairs pairs")
  }
}
