package repro.eval

import repro.core.CorrelationSketch
import repro.data.TableGen
import repro.index.SketchIndex
import repro.rank.{CandidateEstimates, Ranker, Scoring}
import TimingEval.{percentile, timeMs}

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
    * NYC-like collection with locally built sketches: every other
    * pair (by sorted id) is a query, the rest the indexed corpus. Returns
    * each query's latency in milliseconds, ascending.
    */
  def experiment(): Seq[Double] = {
    val tables = TableGen.nycLike(TableGen.CollectionConfig(
      numGroups = 16, pairsPerGroup = 24, minKeys = 60, maxKeys = 1500), seed = 5555L)
    val sketches = tables.map(t => t.id -> CorrelationSketch.fromColumns(t.keys, t.values, 1024)).toMap
    val (queryIds, corpusIds) = sketches.keys.toSeq.sorted.zipWithIndex.partition(_._2 % 2 == 0)
    val index = new SketchIndex(corpusIds.map(_._1).map(id => id -> sketches(id)).toMap)
    // warm-up pass for JIT, then measured pass
    queryIds.take(20).foreach { case (qid, _) => timeMs(query(index, sketches(qid))) }
    queryIds.map { case (qid, _) => timeMs(query(index, sketches(qid)))._2 }.sorted
  }

  /** Share of queries under 100 ms and 200 ms, and nearest-rank latency percentiles. */
  def render(latencies: Seq[Double]): String = {
    val sorted = latencies.toArray
    f"queries=${latencies.size} " +
      f"under100ms=${latencies.count(_ < 100).toDouble / latencies.size * 100}%.1f%% " +
      f"under200ms=${latencies.count(_ < 200).toDouble / latencies.size * 100}%.1f%% " +
      f"p50=${percentile(sorted, 0.5)}%.3fms " +
      f"p90=${percentile(sorted, 0.9)}%.3fms p99=${percentile(sorted, 0.99)}%.3fms"
  }
}
