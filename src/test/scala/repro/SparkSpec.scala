package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite

/** Base for the suites that use Spark: one local-mode SparkSession for the
  * whole run.
  *
  * The driver heap is `-Xmx$SPARK_DRIVER_MEM` when that variable is set
  * (``Test / javaOptions`` in build.sbt), else the JVM's default. Broadcast
  * joins are disabled so the oracle-checked joins run Spark's shuffle path.
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared
}

object SparkSpec {
  /** Below Spark's default of 200 shuffle partitions: the test tables are small. */
  private val ShufflePartitions = 64

  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions", ShufflePartitions)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that names the driver heap setting and the
    // parallelism the run got.
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
