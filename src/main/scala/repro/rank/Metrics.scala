package repro.rank

/** Ranking-quality metrics used in §5.4: average precision / MAP over the
  * whole ranked list with binary relevance, and nDCG@k with graded
  * relevance (the absolute true correlation).
  */
object Metrics {

  /** Average precision of a ranked list of binary relevance judgments,
    * over the full list. NaN when the list has no relevant item (such
    * queries are excluded from MAP, the standard convention).
    */
  def averagePrecision(relevant: Seq[Boolean]): Double = {
    val total = relevant.count(identity)
    if (total == 0) return Double.NaN
    var hits = 0
    var sum = 0.0
    var i = 0
    relevant.foreach { rel =>
      i += 1
      if (rel) { hits += 1; sum += hits.toDouble / i }
    }
    sum / total
  }

  /** DCG@k with graded gains: Σ gain_i / log2(i + 1), 1-based positions. */
  def dcg(gains: Seq[Double], k: Int): Double =
    gains.take(k).zipWithIndex.map { case (g, i) =>
      g / (math.log(i + 2) / math.log(2))
    }.sum

  /** nDCG@k: DCG of the ranked gains over the DCG of the ideal ordering.
    * NaN when every gain is zero (no meaningful ideal ranking).
    */
  def ndcg(rankedGains: Seq[Double], k: Int): Double = {
    val ideal = dcg(rankedGains.sorted(Ordering[Double].reverse), k)
    if (ideal == 0.0) Double.NaN else dcg(rankedGains, k) / ideal
  }

  /** Mean of the defined (non-NaN) per-query values: MAP over average
    * precisions, mean nDCG over nDCGs. NaN when no query is defined.
    */
  def mean(perQuery: Seq[Double]): Double = {
    val defined = perQuery.filterNot(_.isNaN)
    if (defined.isEmpty) Double.NaN else defined.sum / defined.size
  }
}
