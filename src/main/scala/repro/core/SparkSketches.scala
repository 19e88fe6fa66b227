package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import scala.collection.mutable

/** DataFrame-level entry points for distributed sketch construction. */
object SparkSketches {

  /** Normalize an arbitrary DataFrame into the (pair, key, value) shape.
    * Rows with a null key or value are dropped — they correspond to missing
    * data, for which neither joinability nor correlation is defined.
    * Non-finite values pass through here and are dropped by [[SketchBuffer]].
    */
  def toKV(df: DataFrame, pairCol: String, keyCol: String, valueCol: String): DataFrame =
    df.select(
        col(pairCol).cast("string").as("pair"),
        col(keyCol).cast("string").as("key"),
        col(valueCol).cast("double").as("value"),
      )
      .filter(col("pair").isNotNull && col("key").isNotNull && col("value").isNotNull)

  /** Build one sketch per distinct `pairCol` value over the whole
    * collection in one pass: each partition fills one [[SketchBuffer]] per
    * pair, and each pair's partial buffers are merged by hu-rank, which
    * yields exactly the sketch of a sequential scan. The merge runs in at
    * most `defaultParallelism` tasks, not one per input partition.
    * Returns pairId → sketch.
    */
  def buildAll(df: DataFrame, pairCol: String, keyCol: String, valueCol: String,
               maxSize: Int, agg: AggFn = AggFn.Mean): Map[String, CorrelationSketch] = {
    val partials = toKV(df, pairCol, keyCol, valueCol).rdd
      .mapPartitions { rows =>
        val bufs = new mutable.HashMap[String, SketchBuffer]
        rows.foreach { r =>
          bufs.getOrElseUpdate(r.getString(0), new SketchBuffer(maxSize))
            .update(r.getString(1), r.getDouble(2))
        }
        bufs.iterator
      }
    partials
      .reduceByKey(_ merge _, math.min(partials.getNumPartitions, partials.sparkContext.defaultParallelism))
      .mapValues(_.result(agg))
      .collect()
      .toMap
  }
}
