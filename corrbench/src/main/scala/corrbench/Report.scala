package corrbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{CorrelationSketch, SparkSketches}

final case class Metric(name: String, value: Double, unit: String)

/** One run's outcome: ops attempted and failed, run-wide checks, metrics, and
  * human-readable notes printed before the JSON line. */
final case class Result(attempted: Int, failed: Int, checksPassed: Boolean,
                        metrics: Seq[Metric], notes: Seq[String]) {
  def correct: Boolean = failed == 0 && checksPassed

  def json: String = {
    val ms = metrics.map { m =>
      require(java.lang.Double.isFinite(m.value), s"metric ${m.name} is not finite: ${m.value}")
      s""""${m.name}": {"value": ${m.value}, "unit": "${m.unit}"}"""
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}

object Report {

  def endToEnd(setupSec: Seq[Double], t: Timed, heapMb: Double): Seq[Metric] = {
    val s = t.summary
    Seq(
      Metric("setup_s", Stats.median(setupSec), "s"),
      Metric("op_p50_ms", s.p50, "ms"),
      Metric("op_tail_ms", s.tail, "ms"),
      Metric("ops_per_s", t.ops / t.wallSec, "1/s"),
      Metric("heap_retained_mb", heapMb, "MB"))
  }

  /** Layer timings the traced run does not derive from its own spans. */
  final case class Probes(build: LayerProbes.Build, coreBuildMs: Double, indexBuildMs: Double,
                          sketchBytes: Double, hitFrac: Double)

  /** Every per-layer metric: span self times and counts from `tr`, the build
    * probes, the JVM counters of the timed `region`, and the overhead of the
    * traced ops (p50 `tracedP50`) over the plain ones (`plain`). */
  def perLayer(tr: Trace, p: Probes, region: Timed, plain: Timed, tracedP50: Double): Seq[Metric] = {
    val totals = tr.totals
    def count(s: Int): Double = math.max(1L, totals(s)._1).toDouble
    def selfUs(s: Int): Double = totals(s)._3 / 1e3 / count(s)
    def inclUs(s: Int): Double = totals(s)._2 / 1e3 / count(s)
    val b = p.build
    Seq(
      Metric("core.hash.ns_per_row", b.hashNsPerRow, "ns"),
      Metric("core.buffer.ns_per_row", b.bufferNsPerRow, "ns"),
      Metric("core.buffer.alloc_bytes_per_row", b.allocBytesPerRow, "B"),
      Metric("core.buffer.merge_us", b.mergeUs, "us"),
      Metric("core.buffer.gate_reject_frac", b.gateRejectFrac, "frac"),
      Metric("core.spark.scan_ms", inclUs(Span.SparkScan) / 1e3, "ms"),
      Metric("core.spark.build_ms", inclUs(Span.SparkBuild) / 1e3, "ms"),
      Metric("core.build.ms", p.coreBuildMs, "ms"),
      Metric("index.build_ms", p.indexBuildMs, "ms"),
      Metric("core.sketch.bytes", p.sketchBytes, "B"),
      Metric("index.search.us_per_query", selfUs(Span.Search), "us"),
      Metric("index.search.hit_frac", p.hitFrac, "frac"),
      Metric("index.hits_per_query", totals(Span.Join)._1 / count(Span.Search), "count"),
      Metric("core.join.us_per_cand", selfUs(Span.Join), "us"),
      Metric("core.join.n_mean", tr.joinRows / count(Span.Join), "count"),
      Metric("stats.pearson.us_per_cand", selfUs(Span.Pearson), "us"),
      Metric("rank.sort.us_per_query", selfUs(Span.Sort), "us"),
      Metric("rank.estimates.us_per_cand", inclUs(Span.Estimates), "us"),
      Metric("stats.pm1.us_per_cand", selfUs(Span.Pm1), "us"),
      Metric("core.containment.us_per_cand", selfUs(Span.Containment), "us"),
      Metric("stats.hoeffding.us_per_cand", selfUs(Span.Hoeffding), "us"),
      Metric("rank.score.us_per_query", selfUs(Span.Score), "us"),
      Metric("rank.estimates.unused_frac",
        (totals(Span.Pm1)._2 + totals(Span.Containment)._2).toDouble / math.max(1L, totals(Span.Estimates)._2), "frac"),
      Metric("jvm.gc_ms_per_op", region.gcMs.toDouble / region.ops, "ms"),
      Metric("jvm.alloc_mb_per_op", region.allocBytes / 1048576.0 / region.ops, "MB"),
      Metric("trace.overhead_frac", tracedP50 / plain.summary.p50 - 1.0, "frac"))
  }

  /** Self-time shares of the traced ops, one line per layer. */
  def shares(tr: Trace, from: Int, until: Int): Seq[String] = {
    val totals = tr.totals(from, until)
    val opNs = totals(Span.Op)._2.toDouble
    Span.names.indices.filter(s => s != Span.Op && totals(s)._1 > 0).map { s =>
      f"share ${Span.names(s)}%-18s ${100.0 * totals(s)._3 / opNs}%6.2f%% of op time (${totals(s)._1} spans)"
    }
  }
}

/** The local Spark session every Spark-using part of the benchmark shares. */
object Sparks {
  /** Spark threads: at most 4, never more than the machine's cores. */
  val threads: Int = math.min(4, Runtime.getRuntime.availableProcessors)

  def start(): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[$threads]")
      .appName("corrbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", threads.toString)
      .config("spark.local.dir", Main.workDir("spark").getPath)
      .config("spark.sql.warehouse.dir", Main.workDir("warehouse").getPath)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** The input scan alone: `toKV` and a count. */
  def tracedScan(tr: Trace, df: DataFrame): Long =
    tr.span(Span.SparkScan)(SparkSketches.toKV(df, "pair", "key", "value").count())

  def tracedBuild(tr: Trace, df: DataFrame, sketchSize: Int): Map[String, CorrelationSketch] = {
    val op = tr.begin(Span.Op)
    val out = tr.span(Span.SparkBuild)(SparkSketches.buildAll(df, "pair", "key", "value", sketchSize))
    tr.finish(op)
    out
  }
}
