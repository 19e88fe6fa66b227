package repro.core

import org.apache.spark.sql.expressions.Aggregator
import org.apache.spark.sql.{DataFrame, Encoder, Encoders}
import org.apache.spark.sql.functions._

/** One ⟨key, value⟩ observation belonging to the column pair `pair`.
  * A "table collection" is flattened to a Dataset of these rows, so sketch
  * construction is a single distributed aggregation over the collection.
  */
final case class KV(pair: String, key: String, value: Double)

/** Typed Spark aggregator that builds a [[CorrelationSketch]] in one pass.
  *
  * The buffer is the mergeable [[SketchBuffer]]; partial sketches built on
  * each partition are merged by hu-rank, which yields *exactly* the same
  * sketch as a sequential scan (per-key aggregation state is commutative,
  * and key inclusion depends only on hu). Kryo encoding is used for both
  * buffer and output since they are not Catalyst products.
  */
final class SketchAggregator(maxSize: Int, agg: AggFn)
    extends Aggregator[KV, SketchBuffer, CorrelationSketch] {
  override def zero: SketchBuffer = new SketchBuffer(maxSize)
  override def reduce(b: SketchBuffer, in: KV): SketchBuffer = { b.update(in.key, in.value); b }
  override def merge(a: SketchBuffer, b: SketchBuffer): SketchBuffer = a.merge(b)
  override def finish(b: SketchBuffer): CorrelationSketch = b.result(agg)
  override def bufferEncoder: Encoder[SketchBuffer] = Encoders.kryo[SketchBuffer]
  override def outputEncoder: Encoder[CorrelationSketch] = Encoders.kryo[CorrelationSketch]
}

/** DataFrame-level entry points for distributed sketch construction. */
object SparkSketches {

  /** Normalize an arbitrary DataFrame into the KV shape. Rows with a null
    * key or value are dropped — they correspond to missing data, for which
    * neither joinability nor correlation is defined. Non-finite values pass
    * through here and are dropped by [[SketchBuffer]].
    */
  def toKV(df: DataFrame, pairCol: String, keyCol: String, valueCol: String): DataFrame =
    df.select(
        col(pairCol).cast("string").as("pair"),
        col(keyCol).cast("string").as("key"),
        col(valueCol).cast("double").as("value"),
      )
      .filter(col("pair").isNotNull && col("key").isNotNull && col("value").isNotNull)

  /** Build one sketch per distinct `pairCol` value over the whole
    * collection: the "DataFrame map/reduce" path. Returns pairId → sketch.
    */
  def buildAll(df: DataFrame, pairCol: String, keyCol: String, valueCol: String,
               maxSize: Int, agg: AggFn = AggFn.Mean): Map[String, CorrelationSketch] = {
    val spark = df.sparkSession
    import spark.implicits._
    val ds = toKV(df, pairCol, keyCol, valueCol).as[KV]
    ds.groupByKey(_.pair)
      .agg(new SketchAggregator(maxSize, agg).toColumn)
      .collect()
      .toMap
  }
}
