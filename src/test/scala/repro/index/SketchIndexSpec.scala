package repro.index

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures.{endToEndTables, keySketch, rankingTables, sketches}
import repro.core.CorrelationSketch

class SketchIndexSpec extends AnyFunSuite {

  private val corpus = Map(
    "full" -> keySketch((0 until 20).map(i => s"s$i"), 32),
    "half" -> keySketch((0 until 10).map(i => s"s$i"), 32),
    "one" -> keySketch(Seq("s0"), 32),
    "none" -> keySketch((0 until 20).map(i => s"other$i"), 32),
  )
  private val index = new SketchIndex(corpus)
  private val query = keySketch((0 until 20).map(i => s"s$i"), 32)

  test("index size counts the corpus sketches") {
    assert(index.size == 4)
  }

  test("search returns exact sketch-hash overlap counts") {
    val hits = index.search(query, topN = 10).map(h => h.id -> h.overlap).toMap
    assert(hits("full") == 20)
    assert(hits("half") == 10)
    assert(hits("one") == 1)
  }

  test("non-overlapping sketches are not retrieved") {
    assert(!index.search(query, topN = 10).exists(_.id == "none"))
  }

  test("results are ordered by overlap descending") {
    val hits = index.search(query, topN = 10)
    assert(hits.map(_.id) == Seq("full", "half", "one"))
  }

  test("topN truncates the hit list") {
    assert(index.search(query, topN = 2).map(_.id) == Seq("full", "half"))
  }

  test("empty query matches nothing") {
    assert(index.search(keySketch(Seq.empty, 32), topN = 5).isEmpty)
  }

  test("ties break deterministically by id") {
    val idx = new SketchIndex(Map(
      "b" -> keySketch(Seq("t1", "t2"), 32),
      "a" -> keySketch(Seq("t1", "t2"), 32),
    ))
    assert(idx.search(keySketch(Seq("t1", "t2"), 32), topN = 2).map(_.id) == Seq("a", "b"))
  }

  test("sketchOf retrieves the indexed sketch") {
    assert(index.sketchOf("full").size == 20)
  }

  test("retrieval works when the query sketch is truncated") {
    val bigCorpus = new SketchIndex(Map("big" -> keySketch((0 until 5000).map(i => s"t$i"), 64)))
    val q = keySketch((0 until 5000).map(i => s"t$i"), 64)
    val hits = bigCorpus.search(q, topN = 1)
    // identical key sets → identical bottom-64 sketches → full overlap
    assert(hits.head.overlap == 64)
  }

  test("every hit's overlap is its sketch-join size, and the hits are the non-empty joins") {
    var hits = 0
    for ((tables, n) <- Seq(endToEndTables -> 256, rankingTables -> 128)) {
      val sks = sketches(tables, n)
      for (t <- tables) {
        val q = sks(t.id)
        val idx = new SketchIndex(sks - t.id)
        val found = idx.search(q, topN = idx.size)
        found.foreach(h => assert(h.overlap == CorrelationSketch.join(q, idx.sketchOf(h.id)).n, s"${t.id} ${h.id}"))
        val joinable = idx.sketches.collect { case (id, c) if CorrelationSketch.join(q, c).n > 0 => id }
        assert(found.map(_.id).toSet == joinable.toSet, t.id)
        hits += found.size
      }
    }
    assert(hits > 0)
  }
}
