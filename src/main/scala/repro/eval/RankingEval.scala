package repro.eval

import repro.core.{AggFn, CorrelationSketch}
import repro.data.{FullJoin, KVTable, TableGen}
import repro.rank.{CandidateEstimates, Metrics, Ranker, Scoring}
import repro.stats.Correlations

/** Harness for Table 1: run every scoring function over every query in a
  * collection and report MAP (r > .75, r > .50) and nDCG@5 / nDCG@10, with
  * relative improvement over the exact-Jaccard-containment baseline `jc`.
  */
object RankingEval {

  /** The four metric values Table 1 reports for one ranker. */
  final case class Scores(map75: Double, map50: Double, ndcg5: Double, ndcg10: Double)

  /** Table 1's four sub-tables: each title with the score it reads. */
  private val metrics: Seq[(String, Scores => Double)] = Seq(
    "MAP (r > .75)" -> (_.map75), "MAP (r > .50)" -> (_.map50),
    "nDCG@5" -> (_.ndcg5), "nDCG@10" -> (_.ndcg10))

  final case class Result(scores: Map[Ranker, Scores]) {
    /** Relative improvement over the `jc` baseline, as in Table 1's "%". */
    def improvementOverJc(ranker: Ranker, metric: Scores => Double): Double = {
      val base = metric(scores(Ranker.Jc))
      (metric(scores(ranker)) - base) / base * 100.0
    }
  }

  /** One evaluated query: ground-truth |r| per candidate id, plus the
    * sketch-side estimates the scorers consume.
    */
  final case class QueryCase(queryId: String, truth: Map[String, Double],
                             cands: Seq[CandidateEstimates])

  private val MinOverlap = 3
  /** Seeds of the PM1 bootstraps in [[buildCases]] and the random ranker in [[evaluate]]. */
  private val CaseSeed = 101L
  private val RankSeed = 7L

  /** Build the per-query candidate lists from one aggregate per table and one
    * [[FullJoin.join]] per (query, table) pair. Candidates are the *truly
    * joinable* other tables (join size ≥ [[MinOverlap]], as in §5.4 where all
    * joinable columns are retrieved per query); relevance is the join's |r|,
    * and `jc` the join size over the query's key count.
    */
  def buildCases(tables: Seq[KVTable], sketches: Map[String, CorrelationSketch]): Seq[QueryCase] = {
    val aggs = tables.map(t => t.id -> FullJoin.aggregateByKey(t, AggFn.Mean)).toMap
    tables.flatMap { q =>
      val joins = tables.collect { case c if c.id != q.id => c.id -> FullJoin.join(aggs(q.id), aggs(c.id)) }
        .filter(_._2._1.length >= MinOverlap)
      Option.when(joins.nonEmpty) {
        val truth = joins.map { case (id, (xs, ys)) => id -> Scoring.absOrZero(Correlations.pearson(xs, ys)) }.toMap
        val ests = joins.map { case (id, (xs, _)) =>
          CandidateEstimates(id, sketches(q.id), sketches(id), jcExact = xs.length.toDouble / aggs(q.id).size,
            seed = CaseSeed ^ (q.id + id).hashCode.toLong)
        }
        QueryCase(q.id, truth, ests)
      }
    }
  }

  /** Score all cases under all rankers and aggregate the four metrics over
    * each ranker's per-query ranked gains.
    */
  def evaluate(cases: Seq[QueryCase]): Result = Result(Ranker.all.map { ranker =>
    val gains = cases.map { qc =>
      Scoring.rank(qc.cands, ranker, RankSeed ^ qc.queryId.hashCode.toLong).map { case (id, _) => qc.truth(id) }
    }
    ranker -> Scores(
      map75 = Metrics.mean(gains.map(g => Metrics.averagePrecision(g.map(_ > 0.75)))),
      map50 = Metrics.mean(gains.map(g => Metrics.averagePrecision(g.map(_ > 0.50)))),
      ndcg5 = Metrics.mean(gains.map(Metrics.ndcg(_, 5))),
      ndcg10 = Metrics.mean(gains.map(Metrics.ndcg(_, 10))))
  }.toMap)

  /** Table 1 as its bench runs it, on the NYC-like
    * collection with locally built sketches. `minKeep` is low so many
    * candidate pairs have small join samples — the §4 "needle in a
    * haystack" regime where estimation false positives appear and
    * risk-aware scoring pays off.
    */
  def experiment(): Result = {
    val tables = TableGen.nycLike(TableGen.CollectionConfig(
      numGroups = 12, pairsPerGroup = 24, minKeys = 60, maxKeys = 3000,
      minKeep = 0.05), seed = 2021L)
    val sketches = tables.map(t => t.id -> CorrelationSketch.fromColumns(t.keys, t.values, 256)).toMap
    evaluate(buildCases(tables, sketches))
  }

  /** Render the four Table 1 sub-tables (ranker, score, % over jc). */
  def render(result: Result): String = {
    val sb = new StringBuilder
    metrics.foreach { case (title, metric) =>
      sb.append(s"== Table 1: $title ==\n")
      sb.append(f"${"ranker"}%-10s ${"score"}%8s ${"% over jc"}%10s\n")
      result.scores.toSeq.sortBy { case (_, s) => -metric(s) }.foreach { case (r, s) =>
        sb.append(f"${r.name}%-10s ${metric(s)}%8.3f ${result.improvementOverJc(r, metric)}%9.1f%%\n")
      }
      sb.append("\n")
    }
    sb.toString
  }
}
