package repro.jobs

import repro.eval.TimingEval

/** Entrypoint reproducing Table 2 (per-pair running times of join +
  * correlation on full data vs sketches), with the configuration of
  * `TimingEval.experiment`. The timing is local in-memory work, matching
  * the paper's single-machine measurement, so it starts no Spark session.
  */
object Table2Job {
  def main(args: Array[String]): Unit = println(TimingEval.render(TimingEval.experiment()))
}
