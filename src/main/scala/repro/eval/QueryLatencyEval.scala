package repro.eval

import org.apache.spark.sql.SparkSession
import repro.core.{CorrelationSketch, SparkSketches}
import repro.data.TableGen
import repro.index.SketchIndex
import repro.rank.{CandidateEstimates, Ranker, Scoring}

/** Harness for the §5.5 query-evaluation experiment (prose, not a table):
  * corpus/query split, inverted index, top-100 retrieval by key overlap,
  * re-sort by estimated correlation. As in the paper, re-ranking uses the
  * point correlation estimate over the sketch join.
  */
object QueryLatencyEval {

  /** One query: retrieve the top 100 by overlap, then re-rank them by the
    * estimated correlation (s1 = |r_p|). Returns the candidate ids, best first.
    */
  def query(index: SketchIndex, q: CorrelationSketch): Seq[String] = {
    val cands = index.search(q, topN = 100).map { h =>
      CandidateEstimates(h.id, q, index.sketchOf(h.id), jcExact = 0.0, seed = 0L)
    }
    Scoring.rank(cands, Ranker.Rp).map(_._1)
  }

  /** The §5.5 experiment as its bench runs it, on the
    * NYC-like collection with sketches built through Spark: every other
    * pair (by sorted id) is a query, the rest the indexed corpus. Returns
    * each query's latency in milliseconds, ascending.
    */
  def experiment(spark: SparkSession): Seq[Double] = {
    val tables = TableGen.nycLike(TableGen.CollectionConfig(
      numGroups = 16, pairsPerGroup = 24, minKeys = 60, maxKeys = 1500), seed = 5555L)
    val sketches =
      SparkSketches.buildAll(TableGen.toDF(spark, tables), "pair", "key", "value", 1024)
    val (queryIds, corpusIds) = sketches.keys.toSeq.sorted.zipWithIndex.partition(_._2 % 2 == 0)
    val index = new SketchIndex(corpusIds.map(_._1).map(id => id -> sketches(id)).toMap)
    def timedMs(qid: String): Double = {
      val t0 = System.nanoTime()
      query(index, sketches(qid))
      (System.nanoTime() - t0) / 1e6
    }
    // warm-up pass for JIT, then measured pass
    queryIds.take(20).foreach { case (qid, _) => timedMs(qid) }
    queryIds.map { case (qid, _) => timedMs(qid) }.sorted
  }

  /** Share of queries under 100 ms and 200 ms, and latency percentiles. */
  def render(latencies: Seq[Double]): String = {
    def pct(p: Double) = latencies((p * (latencies.size - 1)).toInt)
    f"queries=${latencies.size} " +
      f"under100ms=${latencies.count(_ < 100).toDouble / latencies.size * 100}%.1f%% " +
      f"under200ms=${latencies.count(_ < 200).toDouble / latencies.size * 100}%.1f%% " +
      f"p50=${pct(0.5)}%.3fms p90=${pct(0.9)}%.3fms p99=${pct(0.99)}%.3fms"
  }
}
