package repro

import repro.core.{AggFn, CorrelationSketch, Hashing}
import repro.data.{FullJoin, KVTable, TableGen}
import repro.stats.Correlations

/** Test inputs and references that more than one suite uses. */
object Fixtures {

  /** The bottom-k of §3.1 as first written, the reference for every build,
    * cut and estimate: distinct hashes sorted by (hu, hash), the first k kept.
    */
  def bottomK(hashes: Iterable[Int], k: Int): Seq[Int] =
    hashes.toSeq.distinct.sortBy(h => (Hashing.hu(h), h)).take(k)

  /** Pairs of distinct hashes with equal hu, the smaller hash first. */
  val HuTies: Seq[(Int, Int)] = Seq((-974566505, 875382632), (-2062619302, -298033407), (-1377896724, 1981316737))

  /** n standard bivariate normal pairs with correlation r: [[TableGen.sbnPair]]'s values, all keys joined. */
  def bivariate(n: Int, r: Double, seed: Long): (Array[Double], Array[Double]) = {
    val p = TableGen.sbnPair("bivariate", n, r, joinProb = 1.0, seed)
    (p.x.values, p.y.values)
  }

  /** A sketch of `keys` with one value on every row, for tests that read only its keys. */
  def keySketch(keys: collection.Seq[String], n: Int, value: Double = 1.0): CorrelationSketch =
    CorrelationSketch.fromColumns(keys.toArray, Array.fill(keys.size)(value), n)

  /** Locally built sketches of `tables`, by table id. */
  def sketches(tables: Seq[KVTable], n: Int): Map[String, CorrelationSketch] =
    tables.map(t => t.id -> CorrelationSketch.fromColumns(t.keys, t.values, n)).toMap

  /** Ground-truth Pearson correlation of the mean-aggregated join. */
  def correlation(a: KVTable, b: KVTable): Double = {
    val (xs, ys) = FullJoin.joinedColumns(a, b)
    Correlations.pearson(xs, ys)
  }

  /** Exact key-overlap size |K_A ∩ K_B|: the size of the join. */
  def keyOverlap(a: KVTable, b: KVTable): Int = FullJoin.joinedColumns(a, b)._1.length

  /** Exact Jaccard containment |K_A∩K_B|/|K_A| (the `jc` baseline of §5.4)
    * over the keys that carry a finite value, as the join and sketches count. */
  def jaccardContainment(a: KVTable, b: KVTable): Double = {
    val ma = FullJoin.aggregateByKey(a, AggFn.Mean)
    if (ma.isEmpty) 0.0
    else FullJoin.join(ma, FullJoin.aggregateByKey(b, AggFn.Mean))._1.length.toDouble / ma.size
  }

  /** Standard-normal CDF (Abramowitz–Stegun 7.1.26 via erf), the round-trip
    * reference for [[repro.stats.NormalInv.icdf]].
    */
  def normalCdf(x: Double): Double = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))

  private def erf(x: Double): Double = {
    val t = 1.0 / (1.0 + 0.3275911 * math.abs(x))
    val y = 1.0 - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t +
      0.254829592) * t * math.exp(-x * x)
    if (x >= 0) y else -y
  }

  /** Equality that counts NaN as equal to NaN: an empty side's range and an undefined estimate are NaN. */
  def same(a: Double, b: Double): Boolean = a == b || (a.isNaN && b.isNaN)

  /** The end-to-end collection: 4 join groups of 10 pairs, 300–800 keys,
    * 30% of the pairs strongly driven by their group's signal.
    */
  lazy val endToEndTables: Seq[KVTable] = TableGen.nycLike(
    TableGen.CollectionConfig(numGroups = 4, pairsPerGroup = 10, minKeys = 300,
      maxKeys = 800, strongFraction = 0.3),
    seed = 123L)

  /** The Table 1 collection at test scale: 3 join groups of 8 pairs, 150–400 keys. */
  lazy val rankingTables: Seq[KVTable] = TableGen.nycLike(
    TableGen.CollectionConfig(numGroups = 3, pairsPerGroup = 8, minKeys = 150, maxKeys = 400),
    seed = 55L)
}
