package repro

import repro.core.{CorrelationSketch, Hashing}
import repro.data.{KVTable, TableGen}

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
