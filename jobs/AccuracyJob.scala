package repro.jobs

import repro.eval.AccuracyEval

/** Entrypoint for the §5.2/§5.3 accuracy numbers (Fig. 3/4 support): RMSE
  * of sketch correlation estimates vs full-join truth, per estimator,
  * sketch size and join-size bucket, with the configuration of
  * `AccuracyEval.experiment`. Local work only; it starts no Spark session.
  */
object AccuracyJob {
  def main(args: Array[String]): Unit = println(AccuracyEval.render(AccuracyEval.experiment()))
}
