package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.RankingEval
import repro.rank.Ranker

/** Reproduces **Table 1**: ranking quality (MAP and nDCG) of the four
  * scoring functions against the joinability baselines on the NYC-like
  * collection. Paper numbers (NYC Open Data):
  *
  *   MAP (r>.75): r_p*ci_h .529 (+193%), r_b*ci_b .516, r_p .507,
  *                r_p*se_z .420, jc .180, ĵc .172, random .161
  *   MAP (r>.50): r_p*se_z .472 (+102%), r_p*ci_h .467, r_p .452,
  *                r_b*ci_b .428, ĵc .239, jc .234, random .202
  *   nDCG@5:      r_b*ci_b .714 (+51%), r_p*ci_h .705, r_p .699,
  *                r_p*se_z .689, random .481, ĵc .480, jc .471
  *   nDCG@10:     r_b*ci_b .845 (+18%), r_p .843, r_p*ci_h .841,
  *                r_p*se_z .832, ĵc .726, random .724, jc .717
  *
  * The absolute values depend on the (substituted, synthetic) collection;
  * the asserted *shape* is the paper's headline: every correlation-aware
  * ranker beats jc/ĵc/random by a wide margin, and jc ≈ random.
  */
class Table1Bench extends AnyFunSuite {

  private lazy val result = RankingEval.experiment()
  /** s1–s4, the rankers that read the correlation estimates. */
  private val correlationRankers = Seq(Ranker.Rp, Ranker.RpSez, Ranker.RbCib, Ranker.RpCih)

  test("Table 1: print reproduction") {
    println(RankingEval.render(result))
    println("paper (NYC): MAP75 r_p*ci_h=.529 jc=.180 | MAP50 r_p*se_z=.472 jc=.234 | " +
      "nDCG@5 r_b*ci_b=.714 jc=.471 | nDCG@10 r_b*ci_b=.845 jc=.717")
  }

  test("Table 1 shape: every correlation ranker beats jc on MAP (r > .75)") {
    val jc = result.scores(Ranker.Jc).map75
    for (r <- correlationRankers) {
      assert(result.scores(r).map75 > jc,
        s"${r.name}: ${result.scores(r).map75} vs jc $jc")
    }
  }

  test("Table 1 shape: every correlation ranker beats jc on MAP (r > .50)") {
    val jc = result.scores(Ranker.Jc).map50
    for (r <- correlationRankers) {
      assert(result.scores(r).map50 > jc)
    }
  }

  test("Table 1 shape: every correlation ranker beats jc on nDCG@5 and nDCG@10") {
    val jc = result.scores(Ranker.Jc)
    for (r <- correlationRankers) {
      assert(result.scores(r).ndcg5 > jc.ndcg5)
      assert(result.scores(r).ndcg10 > jc.ndcg10)
    }
  }

  test("Table 1 shape: MAP improvements over jc are large (paper: 83-193%)") {
    assert(result.improvementOverJc(Ranker.RpCih, _.map75) > 50.0)
    assert(result.improvementOverJc(Ranker.Rp, _.map50) > 30.0)
  }

  test("Table 1 shape: jc and its sketch estimate perform like random ordering") {
    val jc = result.scores(Ranker.Jc)
    val jcEst = result.scores(Ranker.JcEst)
    val rnd = result.scores(Ranker.Random)
    val rp = result.scores(Ranker.Rp)
    // baselines cluster together, far below the correlation rankers
    for ((m, a, b) <- Seq(("map50", jc.map50, rnd.map50), ("map50", jcEst.map50, rnd.map50))) {
      assert(math.abs(a - b) < (rp.map50 - rnd.map50),
        s"$m baseline separation too large: $a vs $b (rp ${rp.map50})")
    }
  }

  test("Table 1 shape: risk-aware ranking is competitive with plain r_p") {
    // the paper's best rankers are the CI-penalized ones; at minimum they
    // must not collapse below the baselines
    val rp = result.scores(Ranker.Rp)
    val cih = result.scores(Ranker.RpCih)
    assert(cih.map75 > rp.map75 * 0.8)
    assert(cih.ndcg10 > rp.ndcg10 * 0.9)
  }
}
