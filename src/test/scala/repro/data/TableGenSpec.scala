package repro.data

import repro.{Fixtures, SparkSpec}
import repro.stats.Correlations

class TableGenSpec extends SparkSpec {

  test("sbnPair produces the requested row count and unique keys") {
    val p = TableGen.sbnPair("t", n = 1000, targetR = 0.5, joinProb = 1.0, seed = 1L)
    assert(p.x.rows == 1000)
    assert(p.x.keys.distinct.length == 1000)
  }

  test("sbnPair hits the target correlation for large n") {
    for (target <- Seq(-0.8, 0.0, 0.6)) {
      val p = TableGen.sbnPair("t", n = 30000, targetR = target, joinProb = 1.0, seed = 2L)
      val (xs, ys) = FullJoin.joinedColumns(p.x, p.y)
      val r = Correlations.pearson(xs, ys)
      assert(math.abs(r - target) < 0.03, s"target $target got $r")
    }
  }

  test("join probability controls the subsampled side's size") {
    val p = TableGen.sbnPair("t", n = 10000, targetR = 0.0, joinProb = 0.3, seed = 3L)
    assert(math.abs(p.y.rows - 3000) < 300, s"got ${p.y.rows}")
  }

  test("sbnPair keys are namespaced so separate pairs never join") {
    val p1 = TableGen.sbnPair("p1", 100, 0.5, 1.0, 4L)
    val p2 = TableGen.sbnPair("p2", 100, 0.5, 1.0, 4L)
    assert(Fixtures.keyOverlap(p1.x, p2.x) == 0)
  }

  test("sbn collection has the requested shape and is deterministic") {
    val c1 = TableGen.sbn(10, 50, 200, seed = 5L)
    val c2 = TableGen.sbn(10, 50, 200, seed = 5L)
    assert(c1.size == 10)
    assert(c1.map(_.x.rows) == c2.map(_.x.rows))
    assert(c1.zip(c2).forall { case (a, b) => a.x.values.toSeq == b.x.values.toSeq })
    assert(c1.forall(p => p.targetR >= -1.0 && p.targetR <= 1.0))
  }

  test("nycLike produces the configured number of tables") {
    val cfg = TableGen.CollectionConfig(numGroups = 3, pairsPerGroup = 4,
      minKeys = 30, maxKeys = 100)
    assert(TableGen.nycLike(cfg).size == 12)
  }

  test("nycLike tables in the same group are joinable, across groups are not") {
    val cfg = TableGen.CollectionConfig(numGroups = 2, pairsPerGroup = 3,
      minKeys = 50, maxKeys = 100)
    val ts = TableGen.nycLike(cfg, seed = 6L)
    val g0 = ts.filter(_.id.startsWith("g0:"))
    val g1 = ts.filter(_.id.startsWith("g1:"))
    assert(Fixtures.keyOverlap(g0(0), g0(1)) > 0)
    assert(Fixtures.keyOverlap(g0(0), g1(0)) == 0)
  }

  test("nycLike accepts a fixed key-domain size and rejects an empty one") {
    val ts = TableGen.nycLike(TableGen.CollectionConfig(numGroups = 2, pairsPerGroup = 3,
      minKeys = 40, maxKeys = 40), seed = 10L)
    assert(ts.size == 6)
    ts.groupBy(_.id.takeWhile(_ != ':')).values.foreach { g =>
      assert(g.flatMap(_.keys).toSet.size <= 40)
    }
    assertThrows[IllegalArgumentException](
      TableGen.nycLike(TableGen.CollectionConfig(minKeys = 0, maxKeys = 5)))
  }

  test("nycLike contains duplicated keys (repeated categorical values)") {
    val ts = TableGen.nycLike(TableGen.CollectionConfig(numGroups = 1, pairsPerGroup = 5,
      minKeys = 200, maxKeys = 400), seed = 7L)
    assert(ts.exists(t => t.rows > t.keys.distinct.length))
  }

  test("nycLike plants both strong and weak correlations within groups") {
    val ts = TableGen.nycLike(TableGen.CollectionConfig(numGroups = 2, pairsPerGroup = 12,
      minKeys = 300, maxKeys = 600), seed = 8L)
    val rs = for {
      g <- Seq("g0", "g1")
      group = ts.filter(_.id.startsWith(g + ":"))
      a <- group; b <- group if a.id < b.id
      r = Fixtures.correlation(a, b) if !r.isNaN
    } yield math.abs(r)
    assert(rs.exists(_ > 0.5), "no strongly correlated pair planted")
    assert(rs.exists(_ < 0.2), "no weakly correlated pair planted")
  }

  test("toDF flattens the collection preserving row counts") {
    val ts = TableGen.nycLike(TableGen.CollectionConfig(numGroups = 1, pairsPerGroup = 3,
      minKeys = 30, maxKeys = 60), seed = 9L)
    val df = TableGen.toDF(spark, ts)
    assert(df.count() == ts.map(_.rows.toLong).sum)
    assert(df.columns.toSeq == Seq("pair", "key", "value"))
  }
}
