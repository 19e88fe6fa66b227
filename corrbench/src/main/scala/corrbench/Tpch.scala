package corrbench

import repro.data.KVTable

import java.util.SplittableRandom

/** ⟨key, numeric⟩ column pairs shaped like TPC-H with uniform keys: the
  * row counts, key domains and value ranges of TPC-H at scale factor 0.1
  * (600k lineitem rows whose l_orderkey takes ~147k distinct values), scaled
  * linearly to scale factor `Sf`. The rows are generated from the seed so
  * the benchmark reads no file outside its checkout.
  */
object Tpch {

  /** One column pair: `rows` rows whose key is uniform over 1..`keyDomain`
    * (or the row number when `uniqueKeys`), with value (lo + U[0, span)) / scale. */
  final case class Pair(id: String, rows: Int, keyDomain: Int, uniqueKeys: Boolean,
                        lo: Int, span: Int, scale: Double)

  /** Scale factor; row counts and key domains are linear in it. A build has
    * a fixed Spark cost of ~90 ms; at 0.03 (660k rows, ~0.55 s a build on 4
    * threads) the per-row work is ~85% of a build and the share of
    * SketchBuffer time is within a few points of what 0.1 gives, while 40
    * builds still fit in ~25 s. */
  val Sf = 0.03

  private def n(perSf: Int): Int = math.max(1, (perSf * Sf).round.toInt)

  val pairs: Seq[Pair] = Seq(
    Pair("lineitem:l_orderkey/l_extendedprice", n(6000000), n(1500000), uniqueKeys = false, 90000, 10410000, 100.0),
    Pair("lineitem:l_partkey/l_quantity", n(6000000), n(200000), uniqueKeys = false, 1, 50, 1.0),
    Pair("lineitem:l_suppkey/l_discount", n(6000000), n(10000), uniqueKeys = false, 0, 11, 100.0),
    Pair("orders:o_orderkey/o_totalprice", n(1500000), n(1500000), uniqueKeys = true, 100191, 49899127, 100.0),
    Pair("orders:o_custkey/o_totalprice", n(1500000), n(150000), uniqueKeys = false, 100191, 49899127, 100.0),
    Pair("events:user_id/value", n(1000000), n(15000), uniqueKeys = false, 0, 20000, 100.0))

  val rows: Long = pairs.map(_.rows.toLong).sum

  val ChunkRows = 10000

  /** A slice of one pair's rows, generated from its own seed. */
  final case class Chunk(pair: Pair, index: Int, seed: Long)

  /** All chunks, in an order permuted by `seed`. */
  def chunks(seed: Long): IndexedSeq[Chunk] = {
    val rng = new SplittableRandom(seed)
    val cs = for {
      p <- pairs.toIndexedSeq
      i <- 0 until (p.rows + ChunkRows - 1) / ChunkRows
    } yield Chunk(p, i, rng.nextLong())
    val a = cs.toArray
    var i = a.length - 1
    while (i > 0) { val j = rng.nextInt(i + 1); val t = a(i); a(i) = a(j); a(j) = t; i -= 1 }
    a.toIndexedSeq
  }

  /** The chunk's rows as (pair id, key, value). */
  def rowsOf(c: Chunk): Iterator[(String, Long, Double)] = {
    val p = c.pair
    val rng = new SplittableRandom(c.seed)
    val first = c.index * ChunkRows
    val n = math.min(ChunkRows, p.rows - first)
    val uniq = if (p.uniqueKeys) {
      val a = Array.tabulate(n)(i => (first + i + 1).toLong)
      var i = n - 1
      while (i > 0) { val j = rng.nextInt(i + 1); val t = a(i); a(i) = a(j); a(j) = t; i -= 1 }
      a
    } else null
    Iterator.tabulate(n) { i =>
      val key = if (uniq != null) uniq(i) else (1 + rng.nextInt(p.keyDomain)).toLong
      (p.id, key, (p.lo + rng.nextInt(p.span)) / p.scale)
    }
  }

  /** The same rows as local tables, keys stringified as Spark casts them. */
  def tables(seed: Long): Seq[KVTable] = {
    val byPair = chunks(seed).groupBy(_.pair.id)
    pairs.map { p =>
      val rows = byPair(p.id).iterator.flatMap(rowsOf).toArray
      KVTable(p.id, rows.map(_._2.toString), rows.map(_._3))
    }
  }
}
