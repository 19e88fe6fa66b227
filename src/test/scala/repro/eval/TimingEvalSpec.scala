package repro.eval

import org.scalatest.funsuite.AnyFunSuite

class TimingEvalSpec extends AnyFunSuite {

  private lazy val workload = TimingEval.workload(pairs = 30, minN = 100, maxN = 20000, seed = 3L)
  private lazy val rows = TimingEval.run(workload, sketchSize = 128, warmup = 5)

  test("workload has the requested number of pairs with log-uniform sizes") {
    assert(workload.size == 30)
    assert(workload.forall { case (a, _) => a.rows >= 4 && a.rows <= 20000 })
    assert(workload.map(_._1.rows).distinct.size > 10)
  }

  test("all six operation rows are reported") {
    assert(rows.map(_.label) ==
      Seq("full.join", "full.r_s", "full.r_p", "sketch.join", "sketch.r_p", "sketch.r_s"))
  }

  test("statistics are internally consistent") {
    rows.foreach { r =>
      assert(r.mean >= 0.0 && r.std >= 0.0)
      assert(r.p75 <= r.p90 + 1e-12 && r.p90 <= r.p99 + 1e-12 && r.p99 <= r.p999 + 1e-12,
        s"${r.label} percentiles not monotone")
    }
  }

  test("sketch-side operations are faster than full-data operations (tails)") {
    val byLabel = rows.map(r => r.label -> r).toMap
    assert(byLabel("sketch.join").p99 < byLabel("full.join").p99)
    assert(byLabel("sketch.r_s").p99 < byLabel("full.r_s").p99)
  }

  test("render includes every row and the header") {
    val out = TimingEval.render(rows)
    assert(out.contains("Table 2"))
    rows.foreach(r => assert(out.contains(r.label)))
  }
}
