package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.QueryLatencyEval

/** Reproduces the §5.5 query-evaluation experiment (prose, not a table):
  * the corpus/query split with sketch size 1024, inverted-index retrieval
  * of the top-100 candidates by key overlap and re-sorting by estimated
  * correlation. Paper: 94% of queries under 100 ms, ~98.5% under 200 ms.
  */
class QueryLatencyBench extends AnyFunSuite {

  private lazy val latencies: Seq[Double] = QueryLatencyEval.experiment()

  test("§5.5: print reproduction") {
    println(QueryLatencyEval.render(latencies))
    println("paper: 94% of queries under 100 ms, ~98.5% under 200 ms")
  }

  test("§5.5 shape: at least 94% of queries answer under 100 ms") {
    val frac = latencies.count(_ < 100).toDouble / latencies.size
    assert(frac >= 0.94, f"only ${frac * 100}%.1f%% of queries under 100 ms")
  }

  test("§5.5 shape: at least 98.5% of queries answer under 200 ms") {
    val frac = latencies.count(_ < 200).toDouble / latencies.size
    assert(frac >= 0.985, f"only ${frac * 100}%.1f%% of queries under 200 ms")
  }

  test("§5.5 shape: interactive regime — median latency well under 100 ms") {
    assert(latencies(latencies.size / 2) < 100.0)
  }
}
