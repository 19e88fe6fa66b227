package repro.eval

import repro.core.CorrelationSketch
import repro.data.{FullJoin, KVTable, TableGen}
import repro.stats.Correlations

import java.util.SplittableRandom

/** Harness for Table 2: per-pair running times (ms) of join, Pearson and
  * Spearman on the full data vs on the sketches, reported as mean, std
  * dev, and p75/p90/p99/p99.9 over all pairs.
  *
  * As in the paper, the full data is assumed already in memory — we time
  * the join (hash aggregation + key intersection) and the correlation
  * computations themselves. Table sizes are drawn log-uniformly so the
  * timing distribution is heavy-tailed like the paper's collection.
  */
object TimingEval {

  final case class Row(label: String, mean: Double, std: Double,
                       p75: Double, p90: Double, p99: Double, p999: Double)

  /** The nearest-rank `p`-percentile of ascending `sorted`: its ⌈p·n⌉-th value. */
  private[eval] def percentile(sorted: Array[Double], p: Double): Double = {
    val idx = math.min(sorted.length - 1, math.ceil(p * sorted.length).toInt - 1)
    sorted(math.max(0, idx))
  }

  private def stats(label: String, ms: Array[Double]): Row = {
    val mean = ms.sum / ms.length
    val std = math.sqrt(ms.map(t => (t - mean) * (t - mean)).sum / ms.length)
    val s = ms.sorted
    Row(label, mean, std, percentile(s, 0.75), percentile(s, 0.90),
      percentile(s, 0.99), percentile(s, 0.999))
  }

  /** Times per op and pair; the reported time is their median. */
  private val Repeats = 3

  /** The result of `body` and its wall time in ms. */
  @inline private[eval] def timeMs[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e6)
  }

  /** The result of `body` and the median of [[Repeats]] timings (ms) of it,
    * so one stall from outside the measured code cannot set a pair's time.
    */
  private def medianMs[A](body: => A): (A, Double) = {
    val runs = Array.fill(Repeats)(timeMs(body))
    (runs(0)._1, runs.map(_._2).sorted.apply(Repeats / 2))
  }

  /** Generate `pairs` SBN-style table pairs with heavily skewed sizes in
    * [minN, maxN]: sizes are log-scale with the mass concentrated near
    * minN and rare giants near maxN (u^2.5 skew), mimicking open-data
    * collections where most tables are small and a few are huge — this is
    * what makes the paper's mean sit far above its p75.
    */
  def workload(pairs: Int, minN: Int, maxN: Int, seed: Long): Seq[(KVTable, KVTable)] = {
    val rng = new SplittableRandom(seed)
    (0 until pairs).map { i =>
      val u = math.pow(rng.nextDouble(), 2.5)
      val logN = math.log(minN) + u * (math.log(maxN) - math.log(minN))
      val n = math.max(4, math.exp(logN).toInt)
      val p = TableGen.sbnPair(s"t2-$i", n, rng.nextDouble() * 2 - 1,
        math.max(0.1, rng.nextDouble()), rng.nextLong())
      (p.x, p.y)
    }
  }

  /** Time all six operations over the workload. Sketches are prebuilt
    * (they are, by design, precomputed at indexing time). The three sketch
    * ops run in one pass over all pairs and the three full-data ops in
    * another, so the full joins' garbage never lands in a sketch timing;
    * each pass is preceded by the same pass over the first `warmup` pairs,
    * discarded, so JIT compilation does not pollute tails.
    */
  def run(pairs: Seq[(KVTable, KVTable)], sketchSize: Int, warmup: Int): Seq[Row] = {
    val sketches = pairs.map { case (a, b) =>
      (CorrelationSketch.fromColumns(a.keys, a.values, sketchSize),
       CorrelationSketch.fromColumns(b.keys, b.values, sketchSize))
    }
    val fullJoin = (i: Int) => FullJoin.joinedColumns(pairs(i)._1, pairs(i)._2)
    val sketchJoin = (i: Int) => {
      val sj = CorrelationSketch.join(sketches(i)._1, sketches(i)._2)
      (sj.xs, sj.ys)
    }
    def timed(join: Int => (Array[Double], Array[Double])) = {
      pass(math.min(warmup, pairs.length), join)
      pass(pairs.length, join)
    }
    val (skJoin, skRp, skRs) = timed(sketchJoin)
    val (fullJ, fullRp, fullRs) = timed(fullJoin)

    Seq(
      stats("full.join", fullJ),
      stats("full.r_s", fullRs),
      stats("full.r_p", fullRp),
      stats("sketch.join", skJoin),
      stats("sketch.r_p", skRp),
      stats("sketch.r_s", skRs),
    )
  }

  /** Times (ms) of `join`, then Pearson and Spearman over its paired
    * columns, for each of the first `m` pairs: the (join, r_p, r_s) timings,
    * one median timing per pair in each.
    */
  private def pass(m: Int, join: Int => (Array[Double], Array[Double])): (Array[Double], Array[Double], Array[Double]) = {
    val (tJoin, tRp, tRs) = (new Array[Double](m), new Array[Double](m), new Array[Double](m))
    var i = 0
    while (i < m) {
      val ((xs, ys), tj) = medianMs(join(i))
      tJoin(i) = tj
      tRp(i) = medianMs(Correlations.pearson(xs, ys))._2
      tRs(i) = medianMs(Correlations.spearman(xs, ys))._2
      i += 1
    }
    (tJoin, tRp, tRs)
  }

  /** Table 2 as its bench runs it. */
  def experiment(): Seq[Row] =
    run(workload(pairs = 250, minN = 100, maxN = 500000, seed = 31L), sketchSize = 256, warmup = 20)

  def render(rows: Seq[Row]): String = {
    val sb = new StringBuilder
    sb.append("== Table 2: running times (ms) ==\n")
    sb.append(f"${"op"}%-12s ${"mean"}%10s ${"std"}%10s ${"p75"}%10s ${"p90"}%10s ${"p99"}%10s ${"p99.9"}%10s\n")
    rows.foreach { r =>
      sb.append(f"${r.label}%-12s ${r.mean}%10.3f ${r.std}%10.3f ${r.p75}%10.3f ${r.p90}%10.3f ${r.p99}%10.3f ${r.p999}%10.3f\n")
    }
    sb.toString
  }
}
