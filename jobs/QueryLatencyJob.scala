package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.eval.QueryLatencyEval

/** spark-submit entrypoint for the §5.5 query-evaluation experiment: the
  * query latency distribution, with the configuration of
  * `QueryLatencyEval.experiment`.
  */
object QueryLatencyJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("repro-query-latency").getOrCreate()
    try println(QueryLatencyEval.render(QueryLatencyEval.experiment(spark)))
    finally spark.stop()
  }
}
