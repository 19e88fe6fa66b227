package repro.index

import repro.core.CorrelationSketch

import scala.collection.mutable

/** In-memory inverted index over sketch key hashes (§4 "query evaluation",
  * §5.5). The paper indexes sketches with Apache Lucene; this index
  * implements the same retrieval semantics — candidates scored by key-hash
  * overlap with the query sketch, top-N retrieved, then re-ranked by
  * estimated correlation — without the external dependency (DESIGN.md §4).
  */
final class SketchIndex(val sketches: Map[String, CorrelationSketch]) {

  private val ids: Array[String] = sketches.keys.toArray.sorted
  private val postings: mutable.HashMap[Int, mutable.ArrayBuffer[Int]] = {
    val m = new mutable.HashMap[Int, mutable.ArrayBuffer[Int]]
    var i = 0
    while (i < ids.length) {
      val sk = sketches(ids(i))
      sk.keyHashes.foreach(h => m.getOrElseUpdate(h, new mutable.ArrayBuffer[Int]) += i)
      i += 1
    }
    m
  }

  def size: Int = ids.length

  import SketchIndex.Hit

  /** Top-N candidates by sketch key-hash overlap with `query`.
    * Deterministic tie-break on id.
    */
  def search(query: CorrelationSketch, topN: Int): Seq[Hit] = {
    val counts = new Array[Int](ids.length)
    query.keyHashes.foreach { h =>
      postings.get(h).foreach(_.foreach(counts(_) += 1))
    }
    val hits = mutable.ArrayBuffer.empty[Hit]
    var i = 0
    while (i < counts.length) {
      if (counts(i) > 0) hits += Hit(ids(i), counts(i))
      i += 1
    }
    hits.sortBy(h => (-h.overlap, h.id)).take(topN).toSeq
  }

  def sketchOf(id: String): CorrelationSketch = sketches(id)
}

object SketchIndex {
  /** One retrieved candidate with its raw key-hash overlap count. */
  final case class Hit(id: String, overlap: Int)
}
