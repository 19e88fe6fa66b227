package corrbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{CorrelationSketch, SparkSketches}
import repro.index.SketchIndex

import scala.collection.mutable.ArrayBuffer

/** ingest-tpch: one op is one `SparkSketches.buildAll` at sketch size 1024
  * over a cached collection of TPC-H-shaped ⟨key, numeric⟩ pairs. This is the
  * indexer path, the only one that runs Spark, Kryo buffers and partial
  * `merge`; its pairs span an exact sketch (l_suppkey, 300 keys) and heavily
  * truncated ones (l_orderkey, ~44k keys at scale factor 0.03).
  */
object IngestWorkload {
  val SketchSize = 1024
  /** Each build runs a large body of Spark planning code once, and the JIT
    * competes with four busy Spark threads for the cores, so builds take
    * 12-20 s to settle; timing sooner drifts by 30-60%. */
  val WarmUpSec = 20.0

  private def load(spark: SparkSession, seed: Long): DataFrame = {
    import spark.implicits._
    val chunks = Tpch.chunks(seed)
    // One cached partition per Spark thread: each task of a build costs a
    // fixed few ms, so a finer split measures task overhead more than sketching.
    val df = spark.sparkContext.parallelize(chunks, chunks.size)
      .flatMap(Tpch.rowsOf).toDF("pair", "key", "value").coalesce(Sparks.threads).cache()
    require(df.count() == Tpch.rows, "cached collection lost rows")
    df
  }

  def run(o: Options): Result = {
    val setupSec = ArrayBuffer.empty[Double]
    var spark: SparkSession = null
    var df: DataFrame = null
    for (k <- 0 to o.setups) { // k = 0 is the untimed warm-up setup
      if (spark != null) { df.unpersist(blocking = true); spark.stop() }
      System.gc() // each setup starts on a clean heap, not the last one's garbage
      val t0 = System.nanoTime()
      spark = Sparks.start()
      df = load(spark, o.seed)
      if (k > 0) setupSec += (System.nanoTime() - t0) / 1e9
    }
    try {
      val heapMb = Jvm.retainedHeapMb()
      val tr = new Trace(1 << 16)
      val plain = (_: Int) => SparkSketches.buildAll(df, "pair", "key", "value", SketchSize)
      Timed.warmUp(WarmUpSec, 1)(plain)
      val (region, timed, outs) = Timed.region(o, 1)(plain, _ => Sparks.tracedBuild(tr, df, SketchSize))
      val tracedEnd = tr.size

      // Expected sketches, built locally from the same rows after timing.
      val tables = Tpch.tables(o.seed)
      val t0 = System.nanoTime()
      val local = tables.map(t => t.id -> CorrelationSketch.fromColumns(t.keys, t.values, SketchSize)).toMap
      val coreBuildMs = (System.nanoTime() - t0) / 1e6
      val bottoms = tables.map(t => t.id -> Checks.bottomK(t.keys, SketchSize)).toMap
      val failed = outs.count { case (_, built) =>
        built.keySet != local.keySet ||
          !built.forall { case (id, sk) => Checks.sketchMatches(sk, local(id), bottoms(id)) }
      }
      val notes = Seq(timed.summary.describe("ingest-tpch"),
        f"rows per op: ${Tpch.rows}; rows sketched per second: ${Tpch.rows * timed.ops / timed.wallSec}%.0f")
      if (!o.trace)
        return Result(timed.ops, failed, checksPassed = true, Report.endToEnd(setupSec.toSeq, timed, heapMb), notes)

      for (_ <- 1 to 3) Sparks.tracedScan(tr, df)
      // The query path over the TPC-H sketches: each pair queries the others.
      val t1 = System.nanoTime()
      new SketchIndex(local)
      val indexBuildMs = (System.nanoTime() - t1) / 1e6
      val hitFracs = ArrayBuffer.empty[Double]
      var queriesOk = true
      for (_ <- 1 to 5; q <- local.keys.toIndexedSeq.sorted) {
        val others = local - q
        val index = new SketchIndex(others)
        val e = QueryPath.expected(local(q), others)
        val r = QueryPath.rpTraced(tr, index, local(q))
        val k = QueryPath.riskTraced(tr, index, local(q))
        queriesOk &&= QueryPath.checkRp(r, e) && QueryPath.checkRisk(k.ranked, e) &&
          QueryPath.unrolledMatches(index, local(q), k)
        hitFracs += e.overlapping.toDouble / others.size
      }
      val probes = Report.Probes(
        LayerProbes.build(tables, SketchSize, Sparks.threads), coreBuildMs, indexBuildMs,
        LayerProbes.sketchBytes(local.values), Stats.median(hitFracs.toSeq))
      val tracedP50 = Stats.median(tr.opMillis(0, tracedEnd).toIndexedSeq)
      val buildMs = tr.totals(0, tracedEnd)(Span.SparkBuild)
      // The buffer work of one build, spread over the Spark threads, as a
      // share of the build: the most a faster SketchBuffer could save.
      val bufferShare = probes.build.bufferNsPerRow * Tpch.rows / Sparks.threads / (buildMs._2.toDouble / buildMs._1)
      tr.write(Main.workDir("trace").toPath.resolve(s"ingest-tpch-${o.seed}.tsv").toFile)
      Result(region.ops, failed, queriesOk, Report.perLayer(tr, probes, region, timed, tracedP50),
        notes ++ Report.shares(tr, 0, tracedEnd) :+ f"SketchBuffer share of a build: ${100 * bufferShare}%.1f%%")
    } finally spark.stop()
  }
}
