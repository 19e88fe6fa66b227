package repro.data

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Fixtures, Oracle, SparkSpec}
import repro.core.{AggFn, CorrelationSketch}

class FullJoinSpec extends SparkSpec {

  /** DataFrame version of the aggregated join, for oracle-checked tests:
    * mean-aggregate each side's finite values per key, inner-join on the
    * key, and return columns (k, x, y). Semantics must match
    * [[FullJoin.joinedColumns]].
    */
  private def joinedDF(a: KVTable, b: KVTable): DataFrame = {
    def finite(t: KVTable) = TableGen.toDF(spark, Seq(t))
      .filter(!isnan(col("value")) && abs(col("value")) =!= Double.PositiveInfinity)
    val dfA = finite(a).groupBy(col("key").as("k")).agg(avg("value").as("x"))
    val dfB = finite(b).groupBy(col("key").as("kb")).agg(avg("value").as("y"))
    dfA.join(dfB, col("k") === col("kb")).select(col("k"), col("x"), col("y"))
  }

  /** The rows of [[joinedDF]] as (k, x, y), sorted by key. */
  private def joinedRows(a: KVTable, b: KVTable): Seq[(String, Double, Double)] =
    joinedDF(a, b).collect().map(r => (r.getString(0), r.getDouble(1), r.getDouble(2))).sortBy(_._1).toSeq

  /** Checks `sparkDf` against DuckDB running `select` over tx and ty
    * mean-aggregated per key as the views ax(k, x) and bx(kb, y).
    */
  private def assertOracle(sparkDf: DataFrame, select: String): Unit =
    Oracle.assertEquivalent(sparkDf,
      """WITH ax AS (SELECT key AS k, AVG(CAST(value AS DOUBLE)) AS x FROM tx GROUP BY key),
        |     bx AS (SELECT key AS kb, AVG(CAST(value AS DOUBLE)) AS y FROM ty GROUP BY key)
        |""".stripMargin + select,
      "tx" -> TableGen.toDF(spark, Seq(tx)),
      "ty" -> TableGen.toDF(spark, Seq(ty)))

  private val tx = KVTable("tx",
    Array("2021-01", "2021-02", "2021-03", "2021-04", "2021-05", "2021-06", "2021-07"),
    Array(6.0, 4.0, 2.0, 3.0, 0.5, 4.0, 2.0))
  private val ty = KVTable("ty",
    Array("2021-01", "2021-01", "2021-02", "2021-02", "2021-03", "2021-03", "2021-04"),
    Array(5.5, 4.5, 3.9, 2.0, 4.0, 1.0, 4.0))

  test("reproduces the paper's Figure 1 worked example (mean aggregation)") {
    val (xs, ys) = FullJoin.joinedColumns(tx, ty)
    // keys sorted: 2021-01..2021-04
    assert(xs.toSeq == Seq(6.0, 4.0, 2.0, 3.0))
    assert(ys.toSeq == Seq(5.0, 2.95, 2.5, 4.0))
  }

  test("aggregateByKey honors each aggregate function") {
    val m = FullJoin.aggregateByKey(ty, AggFn.Mean)
    assert(m("2021-01") == 5.0)
    assert(FullJoin.aggregateByKey(ty, AggFn.Sum)("2021-01") == 10.0)
    assert(FullJoin.aggregateByKey(ty, AggFn.Count)("2021-01") == 2.0)
    assert(FullJoin.aggregateByKey(ty, AggFn.Min)("2021-01") == 4.5)
    assert(FullJoin.aggregateByKey(ty, AggFn.Max)("2021-01") == 5.5)
  }

  test("join is symmetric up to column order") {
    val (xs1, ys1) = FullJoin.joinedColumns(tx, ty)
    val (ys2, xs2) = FullJoin.joinedColumns(ty, tx)
    assert(xs1.toSeq == xs2.toSeq && ys1.toSeq == ys2.toSeq)
  }

  test("disjoint tables join to empty columns") {
    val other = KVTable("o", Array("zzz"), Array(1.0))
    val (xs, ys) = FullJoin.joinedColumns(tx, other)
    assert(xs.isEmpty && ys.isEmpty)
  }

  test("jaccard containment of the worked example") {
    // tx has 7 distinct keys, 4 of them appear in ty
    assert(math.abs(Fixtures.jaccardContainment(tx, ty) - 4.0 / 7.0) < 1e-12)
    assert(Fixtures.jaccardContainment(ty, tx) == 1.0)
  }

  test("key overlap counts distinct shared keys") {
    assert(Fixtures.keyOverlap(tx, ty) == 4)
  }

  test("containment of an empty table is zero") {
    val empty = KVTable("e", Array.empty, Array.empty)
    assert(Fixtures.jaccardContainment(empty, tx) == 0.0)
  }

  test("a key with no finite value counts in neither the overlap nor jc") {
    val q = KVTable("q", Array("x", "y", "w"), Array(Double.NaN, 1.0, 4.0))
    val c = KVTable("c", Array("x", "y"), Array(2.0, 5.0))
    assert(Fixtures.keyOverlap(q, c) == 1)
    assert(Fixtures.keyOverlap(q, c) == FullJoin.joinedColumns(q, c)._1.length)
    assert(Fixtures.jaccardContainment(q, c) == 0.5)
    val sketch = (t: KVTable) => CorrelationSketch.fromColumns(t.keys, t.values, 16)
    assert(Fixtures.jaccardContainment(q, c) == CorrelationSketch.containmentEstimate(sketch(q), sketch(c)))
  }

  test("Spark joinedDF matches the local join (oracle-checked vs DuckDB)") {
    assertOracle(joinedDF(tx, ty), "SELECT k, x, y FROM ax JOIN bx ON ax.k = bx.kb")
  }

  test("Spark post-join correlation matches DuckDB corr (oracle-checked)") {
    assertOracle(joinedDF(tx, ty).agg(corr("x", "y").as("c")),
      "SELECT corr(x, y) AS c FROM ax JOIN bx ON ax.k = bx.kb")
  }

  test("local ground-truth correlation equals the Spark/DuckDB-checked value") {
    val rLocal = Fixtures.correlation(tx, ty)
    val rSpark = joinedDF(tx, ty).agg(corr("x", "y"))
      .collect()(0).getDouble(0)
    assert(math.abs(rLocal - rSpark) < 1e-9)
  }

  test("non-finite rows are left out of the local and the Spark join") {
    // a NaN row on a shared key, ±Inf rows on two more, and a key with no finite value
    val dirty = KVTable("tyd", ty.keys ++ Array("2021-01", "2021-02", "2021-04", "2021-05"),
      ty.values ++ Array(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity, Double.NaN))
    val (xs, ys) = FullJoin.joinedColumns(tx, ty)
    val (dxs, dys) = FullJoin.joinedColumns(tx, dirty)
    assert(dxs.toSeq == xs.toSeq && dys.toSeq == ys.toSeq)
    assert(joinedRows(tx, dirty) == joinedRows(tx, ty))
  }

  test("local and Spark joins agree on a larger generated pair") {
    val p = TableGen.sbnPair("fj", n = 500, targetR = 0.4, joinProb = 0.7, seed = 12L)
    val (xs, ys) = FullJoin.joinedColumns(p.x, p.y)
    val rows = joinedRows(p.x, p.y)
    assert(rows.length == xs.length)
    assert(rows.map(_._2).toSeq == xs.toSeq)
    assert(rows.map(_._3).toSeq == ys.toSeq)
  }
}
