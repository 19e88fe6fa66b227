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

  final case class EstimatorSpec(name: String,
                                 f: (Array[Double], Array[Double]) => Double)

  val estimators: Seq[EstimatorSpec] = Seq(
    EstimatorSpec("pearson", Correlations.pearson),
    EstimatorSpec("spearman", Correlations.spearman),
    EstimatorSpec("rin", Correlations.rin),
    EstimatorSpec("qn", Correlations.qnCorrelation),
    EstimatorSpec("pm1", (x, y) => Correlations.pm1Bootstrap(x, y).estimate),
  )

  /** One (pair, estimator, sketch size) observation: sketch-join size,
    * estimate, and ground truth (population value of the same estimator).
    */
  final case class Obs(estimator: String, sketchSize: Int, joinSize: Int,
                       estimate: Double, truth: Double)

  private val QnCap = 2000
  /** Least sketch-join size of an observation (Fig. 3 plots n ≥ 3). */
  private val MinJoin = 3

  /** Population truth for one estimator over the full join. Two estimators
    * need special handling (as in §5.3): PM1 is compared against the
    * population *Pearson* correlation it intends to estimate, and Qn —
    * O(n²) in the sample size — is evaluated on a strided subsample capped
    * at [[QnCap]] rows (its own sampling noise at 2000 rows is ≈0.02, far
    * below the sketch RMSE being measured).
    */
  private def populationTruth(est: EstimatorSpec, xs: Array[Double],
                              ys: Array[Double]): Double = est.name match {
    case "pm1" => Correlations.pearson(xs, ys)
    case "qn" if xs.length > QnCap =>
      val stride = xs.length / QnCap + 1
      val sx = xs.indices.by(stride).map(xs(_)).toArray
      val sy = ys.indices.by(stride).map(ys(_)).toArray
      Correlations.qnCorrelation(sx, sy)
    case _ => est.f(xs, ys)
  }

  /** Compare sketch estimates against full-join truth for every estimator
    * and sketch size. A (pair, sketch size) whose sketch join has fewer
    * than [[MinJoin]] rows yields no observation. Population truths are
    * computed once per pair.
    */
  def observe(pairs: Seq[(KVTable, KVTable)], sketchSizes: Seq[Int]): Seq[Obs] = {
    pairs.flatMap { case (a, b) =>
      val (xs, ys) = FullJoin.joinedColumns(a, b)
      val truths = estimators.map(est => est.name -> populationTruth(est, xs, ys)).toMap
      sketchSizes.flatMap { n =>
        val ska = CorrelationSketch.fromColumns(a.keys, a.values, n)
        val skb = CorrelationSketch.fromColumns(b.keys, b.values, n)
        val sj = CorrelationSketch.join(ska, skb)
        if (sj.n < MinJoin) Seq.empty
        else estimators.flatMap { est =>
          val truth = truths(est.name)
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
