package repro.index

import org.scalatest.funsuite.AnyFunSuite
import repro.core.CorrelationSketch

class SketchIndexSpec extends AnyFunSuite {

  private def sk(keys: Seq[String], n: Int = 32) =
    CorrelationSketch.fromColumns(keys.toArray, Array.fill(keys.size)(1.0), n)

  private val corpus = Map(
    "full" -> sk((0 until 20).map(i => s"s$i")),
    "half" -> sk((0 until 10).map(i => s"s$i")),
    "one" -> sk(Seq("s0")),
    "none" -> sk((0 until 20).map(i => s"other$i")),
  )
  private val index = new SketchIndex(corpus)
  private val query = sk((0 until 20).map(i => s"s$i"))

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
    assert(index.search(sk(Seq.empty), topN = 5).isEmpty)
  }

  test("ties break deterministically by id") {
    val idx = new SketchIndex(Map(
      "b" -> sk(Seq("t1", "t2")),
      "a" -> sk(Seq("t1", "t2")),
    ))
    assert(idx.search(sk(Seq("t1", "t2")), topN = 2).map(_.id) == Seq("a", "b"))
  }

  test("sketchOf retrieves the indexed sketch") {
    assert(index.sketchOf("full").size == 20)
  }

  test("retrieval works when the query sketch is truncated") {
    val bigCorpus = new SketchIndex(Map("big" -> sk((0 until 5000).map(i => s"t$i"), 64)))
    val q = sk((0 until 5000).map(i => s"t$i"), 64)
    val hits = bigCorpus.search(q, topN = 1)
    // identical key sets → identical bottom-64 sketches → full overlap
    assert(hits.head.overlap == 64)
  }
}
