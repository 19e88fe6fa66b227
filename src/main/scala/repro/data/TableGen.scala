package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}

import java.util.SplittableRandom

/** A table reduced to one ⟨categorical key, numeric value⟩ column pair —
  * the unit of indexing and querying in the paper (§3, §5.1: collections
  * are exploded into all key/value column-pair combinations).
  */
final case class KVTable(id: String, keys: Array[String], values: Array[Double]) {
  def rows: Int = keys.length
}

/** A generated SBN pair with its target population correlation (§5.1). */
final case class SbnPair(x: KVTable, y: KVTable, targetR: Double)

/** Deterministic generators for the three §5.1 data collections.
  *
  * The paper's real collections (NYC Open Data, World Bank Finances
  * snapshots from Sept 2019) are not available offline; `nycLike` is a
  * synthetic stand-in that preserves the structure the evaluation
  * stresses — see DESIGN.md §4 for the substitution rationale.
  */
object TableGen {

  private def gaussian(rng: SplittableRandom): Double = {
    // Box–Muller; SplittableRandom has no nextGaussian in Java 11's API
    // surface we rely on, and determinism across JVMs matters here.
    val u1 = math.max(1e-300, rng.nextDouble())
    val u2 = rng.nextDouble()
    math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.Pi * u2)
  }

  /** One Synthetic-Bivariate-Normal table pair (§5.1): n tuples
    * ⟨k, x_k, y_k⟩ with corr(X, Y) ≈ targetR, split into T_X = ⟨K, X⟩ and
    * T_Y = ⟨K, Y⟩, then T_Y uniformly subsampled to a fraction c (the join
    * probability). Keys are unique strings namespaced by `id` so distinct
    * SBN pairs never join with each other.
    */
  def sbnPair(id: String, n: Int, targetR: Double, joinProb: Double,
              seed: Long): SbnPair = {
    val rng = new SplittableRandom(seed)
    val keys = Array.tabulate(n)(i => s"$id:k$i")
    val xs = new Array[Double](n)
    val ys = new Array[Double](n)
    val b = math.sqrt(math.max(0.0, 1.0 - targetR * targetR))
    var i = 0
    while (i < n) {
      val z1 = gaussian(rng); val z2 = gaussian(rng)
      xs(i) = z1
      ys(i) = targetR * z1 + b * z2
      i += 1
    }
    val keepIdx = Array.range(0, n).filter(_ => rng.nextDouble() < joinProb)
    val yKeys = keepIdx.map(keys(_))
    val yVals = keepIdx.map(ys(_))
    SbnPair(KVTable(s"$id:x", keys, xs), KVTable(s"$id:y", yKeys, yVals), targetR)
  }

  /** The SBN collection: t table pairs with n ~ U(minN, maxN), target
    * correlation ~ U(−1, 1), join probability ~ U(0, 1). The paper uses
    * t = 3000, n up to 500k; scale is a parameter here (DESIGN.md §4).
    */
  def sbn(t: Int, minN: Int, maxN: Int, seed: Long = 11L): Seq[SbnPair] = {
    val rng = new SplittableRandom(seed)
    (0 until t).map { i =>
      val n = minN + rng.nextInt(math.max(1, maxN - minN))
      val r = rng.nextDouble() * 2.0 - 1.0
      val c = math.max(0.05, rng.nextDouble())
      sbnPair(s"sbn$i", n, r, c, rng.nextLong())
    }
  }

  /** Knobs for the synthetic open-data-like collections. */
  final case class CollectionConfig(
      numGroups: Int = 12,
      pairsPerGroup: Int = 24,
      minKeys: Int = 60,
      maxKeys: Int = 1500,
      /** probability a pair is strongly driven by the group's latent signal */
      strongFraction: Double = 0.25,
      /** minimum fraction of the group key domain a pair retains */
      minKeep: Double = 0.3,
  )

  /** fraction of heavy-tailed (lognormal) value columns */
  private val LognormalFraction = 0.25
  /** probability a value is replaced by an extreme outlier */
  private val OutlierRate = 0.005
  /** probability a key row is duplicated (exercises aggregation) */
  private val DuplicateRate = 0.15

  /** NYC-Open-Data-like collection: groups of column pairs that share a key
    * domain (joinable within a group, disjoint across groups) and a latent
    * per-key signal z. Each pair's value is α·z_k + √(1−α²)·ε_k with α
    * heavily skewed toward 0 (needle-in-a-haystack correlation structure),
    * optionally pushed through a lognormal transform (heavy tails), with
    * outlier contamination, random key subsampling (variable join sizes)
    * and duplicated keys (repeated categorical values).
    */
  def nycLike(cfg: CollectionConfig = CollectionConfig(), seed: Long = 17L): Seq[KVTable] = {
    require(cfg.minKeys >= 1 && cfg.maxKeys >= cfg.minKeys,
      s"need 1 <= minKeys <= maxKeys, got ${cfg.minKeys} and ${cfg.maxKeys}")
    val rng = new SplittableRandom(seed)
    val out = Seq.newBuilder[KVTable]
    for (g <- 0 until cfg.numGroups) {
      val nKeys = cfg.minKeys + rng.nextInt(math.max(1, cfg.maxKeys - cfg.minKeys))
      val domain = Array.tabulate(nKeys)(i => s"g$g:k$i")
      val z = Array.fill(nKeys)(gaussian(rng))
      for (p <- 0 until cfg.pairsPerGroup) {
        // After-join Pearson between two pairs of the same group is ≈ α₁·α₂
        // (for normal columns), so strong pairs need α near 1 for the
        // r > 0.75 relevance band of Table 1 to be populated.
        val alpha =
          if (rng.nextDouble() < cfg.strongFraction) 0.9 + 0.1 * rng.nextDouble()
          else 0.5 * math.pow(rng.nextDouble(), 2.0) // mass near zero
        val lognormal = rng.nextDouble() < LognormalFraction
        val keep = cfg.minKeep + (1.0 - cfg.minKeep) * rng.nextDouble()
        val beta = math.sqrt(math.max(0.0, 1.0 - alpha * alpha))
        val ks = Array.newBuilder[String]
        val vs = Array.newBuilder[Double]
        var i = 0
        while (i < nKeys) {
          if (rng.nextDouble() < keep) {
            var reps = 1
            if (rng.nextDouble() < DuplicateRate) reps += 1 + rng.nextInt(2)
            var t = 0
            while (t < reps) {
              var v = alpha * z(i) + beta * gaussian(rng)
              if (lognormal) v = math.exp(v) * 100.0
              if (rng.nextDouble() < OutlierRate) v *= 50.0
              ks += domain(i)
              vs += v
              t += 1
            }
          }
          i += 1
        }
        out += KVTable(s"g$g:p$p", ks.result(), vs.result())
      }
    }
    out.result()
  }

  /** Flatten a collection into the (pair, key, value) DataFrame shape used
    * by [[repro.core.SparkSketches.buildAll]]. Each table is one partition:
    * its task ships only that table and expands it into rows, and no table's
    * rows are split across partitions.
    */
  def toDF(spark: SparkSession, tables: Seq[KVTable]): DataFrame = {
    import spark.implicits._
    spark.sparkContext.parallelize(tables, math.max(1, tables.size))
      .flatMap(t => t.keys.indices.map(i => (t.id, t.keys(i), t.values(i))))
      .toDF("pair", "key", "value")
  }
}
