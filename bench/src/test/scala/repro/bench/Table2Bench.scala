package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.TimingEval

/** Reproduces **Table 2**: per-pair running times (ms) of join, Pearson
  * and Spearman over full data vs sketches. Paper numbers (ms):
  *
  *              full.join  full.r_s  full.r_p  sk.join  sk.r_p  sk.r_s
  *   mean          42.219     8.494     0.240    0.026   0.000   0.004
  *   std          367.696   134.357     9.314    5.618   0.042   0.279
  *   p75            0.231     0.141     0.005    0.003   0.000   0.002
  *   p90            7.038     0.154     0.011    0.006   0.001   0.004
  *   p99         1360.605    29.583     0.385    0.012   0.003   0.013
  *   p99.9       4021.838  2731.154    51.278    0.021   0.007   0.033
  *
  * Absolute times are hardware-dependent; the asserted shape is the
  * paper's: sketch operations are orders of magnitude faster in the tail,
  * and sketch times are nearly constant (tiny spread) because the sketch
  * size is fixed.
  */
class Table2Bench extends AnyFunSuite {

  private lazy val rows = TimingEval.experiment()
  private lazy val byLabel = rows.map(r => r.label -> r).toMap

  test("Table 2: print reproduction") {
    println(TimingEval.render(rows))
    println("paper: full.join mean=42.219 p99.9=4021.838 | sketch.join mean=0.026 p99.9=0.021 | " +
      "full.r_s p99.9=2731.154 | sketch.r_s p99.9=0.033")
  }

  test("Table 2 shape: sketch join is orders of magnitude faster at the tail") {
    val ratio = byLabel("full.join").p999 / math.max(1e-6, byLabel("sketch.join").p999)
    assert(ratio > 100.0, s"p99.9 full/sketch join ratio only $ratio")
  }

  test("Table 2 shape: sketch Spearman is orders of magnitude faster at the tail") {
    val ratio = byLabel("full.r_s").p999 / math.max(1e-6, byLabel("sketch.r_s").p999)
    assert(ratio > 100.0, s"p99.9 full/sketch r_s ratio only $ratio")
  }

  test("Table 2 shape: sketch Pearson beats full Pearson at the tail") {
    assert(byLabel("sketch.r_p").p999 < byLabel("full.r_p").p999)
  }

  test("Table 2 shape: full-data times are heavy-tailed (mean far above p75)") {
    val r = byLabel("full.join")
    assert(r.mean > r.p75 * 2, s"mean ${r.mean} vs p75 ${r.p75}")
  }

  test("Table 2 shape: sketch times are predictable (bounded tail spread)") {
    // fixed-size sketches → the p99.9/p75 spread stays within ~2 orders of
    // magnitude, versus >3 orders for the full join
    val sk = byLabel("sketch.join")
    val full = byLabel("full.join")
    val skSpread = sk.p999 / math.max(1e-6, sk.p75)
    val fullSpread = full.p999 / math.max(1e-6, full.p75)
    assert(skSpread < fullSpread, s"sketch spread $skSpread vs full spread $fullSpread")
  }

  test("Table 2 shape: sketch mean costs sit far below full-data mean costs") {
    assert(byLabel("sketch.join").mean * 10 < byLabel("full.join").mean)
    assert(byLabel("sketch.r_s").mean * 10 < byLabel("full.r_s").mean)
  }
}
