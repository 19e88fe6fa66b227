package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.eval.RankingEval

/** spark-submit entrypoint reproducing Table 1 (ranking quality of the
  * scoring functions on the NYC-like collection), with the configuration
  * of `RankingEval.experiment`.
  */
object Table1Job {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("repro-table1").getOrCreate()
    try println(RankingEval.render(RankingEval.experiment(spark)))
    finally spark.stop()
  }
}
