package repro.core

import org.apache.spark.scheduler.{SparkListener, SparkListenerStageSubmitted, StageInfo}
import repro.{Fixtures, SparkSpec}
import repro.data.TableGen
import repro.stats.{ConfidenceBounds, Correlations}

import java.util.concurrent.{LinkedBlockingQueue, TimeUnit}

/** Distributed sketch construction must agree with the sequential local
  * build — Spark partitioning and merge order may not change the sketch.
  */
class SparkSketchesSpec extends SparkSpec {

  // 300 pairs over the 13 partitions below: each task fills many per-pair
  // buffers, and each pair's partial buffers merge across partitions
  private lazy val tables = TableGen.nycLike(
    TableGen.CollectionConfig(numGroups = 3, pairsPerGroup = 100, minKeys = 50, maxKeys = 300),
    seed = 77L)

  private lazy val sparkSketches: Map[String, CorrelationSketch] = {
    val df = TableGen.toDF(spark, tables).repartition(13) // force multi-partition merges
    SparkSketches.buildAll(df, "pair", "key", "value", maxSize = 64)
  }

  private lazy val localSketches = Fixtures.sketches(tables, 64)

  test("buildAll returns one sketch per column pair") {
    assert(sparkSketches.keySet == tables.map(_.id).toSet)
  }

  test("distributed sketches keep exactly the same keys as local builds") {
    tables.foreach { t =>
      assert(sparkSketches(t.id).keyHashes.toSeq == localSketches(t.id).keyHashes.toSeq,
        s"key mismatch for ${t.id}")
    }
  }

  test("distributed aggregated values match local builds") {
    tables.foreach { t =>
      sparkSketches(t.id).values.zip(localSketches(t.id).values).foreach { case (a, b) =>
        assert(math.abs(a - b) < 1e-9, s"value mismatch for ${t.id}: $a vs $b")
      }
    }
  }

  test("distributed sketches carry correct row counts and ranges") {
    tables.foreach { t =>
      val sk = sparkSketches(t.id)
      assert(sk.rows == t.rows.toLong)
      assert(sk.xMin == t.values.min && sk.xMax == t.values.max)
    }
  }

  test("exactness flag survives distribution") {
    tables.foreach { t =>
      assert(sparkSketches(t.id).exact == localSketches(t.id).exact, s"exact mismatch for ${t.id}")
    }
  }

  test("null keys and values are dropped before sketching") {
    import spark.implicits._
    val df = Seq(
      (Option("p"), Option("a"), Option(1.0)),
      (Option("p"), None, Option(2.0)),
      (Option("p"), Option("b"), None),
      (Option("p"), Option("c"), Option(3.0)),
    ).toDF("pair", "key", "value")
    val sk = SparkSketches.buildAll(df, "pair", "key", "value", 16)("p")
    assert(sk.rows == 2L)
    assert(sk.keyHashes.toSet == Set(Hashing.h("a"), Hashing.h("c")))
  }

  test("non-finite values are dropped by both the local and the distributed build") {
    import spark.implicits._
    val t = tables.head
    // a NaN row on every key, ±Inf on two keys, and a key with no finite value
    val keys = t.keys ++ t.keys.distinct ++ Array(t.keys(0), t.keys(1), "only-non-finite")
    val values = t.values ++ t.keys.distinct.map(_ => Double.NaN) ++
      Array(Double.PositiveInfinity, Double.NegativeInfinity, Double.NaN)
    val clean = localSketches(t.id)
    val local = CorrelationSketch.fromColumns(keys, values, 64)
    val df = keys.zip(values).toSeq.map { case (k, v) => ("d", k, v) }
      .toDF("pair", "key", "value").repartition(5)
    val distributed = SparkSketches.buildAll(df, "pair", "key", "value", 64)("d")
    val other = sparkSketches(tables(1).id) // same join group as `t`
    for (sk <- Seq(local, distributed)) {
      assert(sk.keyHashes.toSeq == clean.keyHashes.toSeq)
      sk.values.zip(clean.values).foreach { case (a, b) => assert(math.abs(a - b) < 1e-9) }
      assert((sk.rows, sk.xMin, sk.xMax, sk.exact) == (clean.rows, clean.xMin, clean.xMax, clean.exact))
      val sj = CorrelationSketch.join(sk, other)
      assert(sj.n >= 3, s"join too small to estimate: ${sj.n}")
      assert(java.lang.Double.isFinite(Correlations.pearson(sj.xs, sj.ys)))
      assert(java.lang.Double.isFinite(
        ConfidenceBounds.hoeffding(sj.xs, sj.ys, sj.cLow, sj.cHigh).hfdLength))
    }
  }

  test("numeric key columns are stringified consistently with local builds") {
    import spark.implicits._
    val df = Seq((1L, 1.5), (2L, 2.5), (1L, 0.5)).toDF("k", "v").withColumn("pair",
      org.apache.spark.sql.functions.lit("n"))
    val sk = SparkSketches.buildAll(df, "pair", "k", "v", 8)("n")
    val local = CorrelationSketch.fromColumns(Array("1", "2", "1"), Array(1.5, 2.5, 0.5), 8)
    assert(sk.keyHashes.toSeq == local.keyHashes.toSeq)
    assert(sk.values.toSeq == local.values.toSeq)
  }

  test("sum aggregation works through the distributed path") {
    import spark.implicits._
    val df = Seq(("p", "a", 1.0), ("p", "a", 2.0), ("p", "b", 5.0))
      .toDF("pair", "key", "value").repartition(3)
    val sk = SparkSketches.buildAll(df, "pair", "key", "value", 8, AggFn.Sum)("p")
    val byHash = sk.keyHashes.zip(sk.values).toMap
    assert(byHash(Hashing.h("a")) == 3.0)
    assert(byHash(Hashing.h("b")) == 5.0)
  }

  test("toDF keeps every table in one partition, so buildAll equals the sequential scan") {
    val df = TableGen.toDF(spark, tables)
    val pairsPerPartition = df.rdd.mapPartitions(rows => Iterator(rows.map(_.getString(0)).toSet)).collect()
    assert(pairsPerPartition.map(_.size).sum == pairsPerPartition.flatten.toSet.size,
      "a table's rows span more than one partition")
    val built = SparkSketches.buildAll(df, "pair", "key", "value", maxSize = 64)
    def bits(xs: Array[Double]) = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)
    tables.foreach { t =>
      val (sk, local) = (built(t.id), localSketches(t.id))
      assert(sk.keyHashes.toSeq == local.keyHashes.toSeq, s"key mismatch for ${t.id}")
      assert(bits(sk.values) == bits(local.values), s"value bits differ for ${t.id}")
      assert((sk.rows, sk.xMin, sk.xMax, sk.exact) == (local.rows, local.xMin, local.xMax, local.exact))
    }
  }

  test("the merge stage of buildAll runs at most defaultParallelism tasks") {
    val sc = spark.sparkContext
    val collectStages = new LinkedBlockingQueue[StageInfo]
    val listener = new SparkListener {
      override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
        if (e.properties != null && e.properties.getProperty("spark.jobGroup.id") == "merge-tasks" &&
            e.stageInfo.name.startsWith("collect at")) collectStages.put(e.stageInfo)
    }
    sc.addSparkListener(listener)
    try {
      val df = TableGen.toDF(spark, tables) // one partition per table
      assert(df.rdd.getNumPartitions == tables.size)
      sc.setJobGroup("merge-tasks", "buildAll over one partition per table")
      assert(SparkSketches.buildAll(df, "pair", "key", "value", maxSize = 64).size == tables.size)
      val merge = collectStages.poll(60, TimeUnit.SECONDS)
      assert(merge != null, "no merge stage seen")
      assert(merge.numTasks <= sc.defaultParallelism, s"${merge.numTasks} merge tasks")
    } finally {
      sc.clearJobGroup()
      sc.removeSparkListener(listener)
    }
  }

  test("buildAll over an empty DataFrame returns no sketches") {
    import spark.implicits._
    val df = Seq.empty[(String, String, Double)].toDF("pair", "key", "value")
    assert(SparkSketches.buildAll(df, "pair", "key", "value", 8).isEmpty)
  }
}
