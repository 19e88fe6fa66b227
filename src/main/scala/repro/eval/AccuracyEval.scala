package repro.eval

import repro.core.CorrelationSketch
import repro.data.{FullJoin, KVTable, TableGen}
import repro.stats.Correlations

/** Supporting harness for the §5.2/§5.3 accuracy results (Figures 3–4 are
  * figures and out of scope, but their headline claims — estimates
  * concentrate around the truth, RMSE decreases with sketch-intersection
  * size and stabilizes near 0.1 — are verifiable as numbers).
  */
object AccuracyEval {

  /** One estimator: its sketch-side estimate `f` and the population
    * `truth` over the full join that the estimate is compared with.
    */
  final case class EstimatorSpec(name: String,
                                 f: (Array[Double], Array[Double]) => Double,
                                 truth: (Array[Double], Array[Double]) => Double)

  private val QnCap = 2000

  /** Qn over the full join, or over a strided subsample of at most
    * [[QnCap]] rows once it is longer: Qn is O(n²) in the sample size, and
    * its own sampling noise at 2000 rows (≈0.02) sits far below the sketch
    * RMSE being measured (§5.3).
    */
  private def cappedQn(xs: Array[Double], ys: Array[Double]): Double =
    if (xs.length <= QnCap) Correlations.qnCorrelation(xs, ys)
    else {
      val stride = xs.length / QnCap + 1
      Correlations.qnCorrelation(xs.indices.by(stride).map(xs(_)).toArray,
        ys.indices.by(stride).map(ys(_)).toArray)
    }

  /** The five estimators of §5.3. Each truth is the estimator's own
    * population value, except PM1's: the population *Pearson* correlation
    * that PM1 intends to estimate.
    */
  val estimators: Seq[EstimatorSpec] = Seq(
    EstimatorSpec("pearson", Correlations.pearson, Correlations.pearson),
    EstimatorSpec("spearman", Correlations.spearman, Correlations.spearman),
    EstimatorSpec("rin", Correlations.rin, Correlations.rin),
    EstimatorSpec("qn", Correlations.qnCorrelation, cappedQn),
    EstimatorSpec("pm1", (x, y) => Correlations.pm1Bootstrap(x, y).estimate, Correlations.pearson),
  )

  /** One (pair, estimator, sketch size) observation: sketch-join size,
    * estimate, and ground truth (population value of the same estimator).
    */
  final case class Obs(estimator: String, sketchSize: Int, joinSize: Int,
                       estimate: Double, truth: Double)

  /** Least sketch-join size of an observation (Fig. 3 plots n ≥ 3). */
  private val MinJoin = 3

  /** Compare sketch estimates against full-join truth for every estimator
    * and sketch size. A (pair, sketch size) whose sketch join has fewer
    * than [[MinJoin]] rows yields no observation. Population truths are
    * computed once per pair.
    */
  def observe(pairs: Seq[(KVTable, KVTable)], sketchSizes: Seq[Int]): Seq[Obs] = {
    pairs.flatMap { case (a, b) =>
      val (xs, ys) = FullJoin.joinedColumns(a, b)
      val truths = estimators.map(_.truth(xs, ys))
      sketchSizes.flatMap { n =>
        val ska = CorrelationSketch.fromColumns(a.keys, a.values, n)
        val skb = CorrelationSketch.fromColumns(b.keys, b.values, n)
        val sj = CorrelationSketch.join(ska, skb)
        if (sj.n < MinJoin) Seq.empty
        else estimators.zip(truths).flatMap { case (est, truth) =>
          val e = est.f(sj.xs, sj.ys)
          if (truth.isNaN || e.isNaN) None
          else Some(Obs(est.name, n, sj.n, e, truth))
        }
      }
    }
  }

  /** The accuracy experiment as its bench runs it, on the
    * SBN collection scaled per DESIGN.md §4.
    */
  def experiment(): Seq[Obs] =
    observe(TableGen.sbn(300, 200, 60000, seed = 404L).map(p => (p.x, p.y)), Seq(64, 256, 1024))

  /** RMSE of (estimate − truth) over `obs`. */
  def rmse(obs: Seq[Obs]): Double =
    math.sqrt(obs.map(o => math.pow(o.estimate - o.truth, 2)).sum / obs.size)

  /** RMSE of (estimate − truth) grouped by estimator, sketch size and
    * join-size bucket (powers of two, as the x-axis of Fig. 4).
    */
  def rmseByBucket(obs: Seq[Obs]): Seq[(String, Int, Int, Double, Int)] = {
    obs.groupBy(o => (o.estimator, o.sketchSize,
        Integer.highestOneBit(math.max(1, o.joinSize))))
      .toSeq
      .map { case ((est, size, bucket), os) => (est, size, bucket, rmse(os), os.size) }
      .sortBy { case (est, size, bucket, _, _) => (est, size, bucket) }
  }

  def render(obs: Seq[Obs]): String = {
    val sb = new StringBuilder
    sb.append("== Accuracy (Fig. 3/4 support): RMSE by sketch-join size bucket ==\n")
    sb.append(f"${"estimator"}%-10s ${"sketch"}%7s ${"join>="}%7s ${"RMSE"}%8s ${"count"}%7s\n")
    rmseByBucket(obs).foreach { case (est, size, bucket, rmse, n) =>
      sb.append(f"$est%-10s $size%7d $bucket%7d $rmse%8.4f $n%7d\n")
    }
    sb.toString
  }
}
