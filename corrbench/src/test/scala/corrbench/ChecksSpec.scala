package corrbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.CorrelationSketch
import repro.data.TableGen
import repro.index.SketchIndex

/** The output checks must pass correct results and fail injected wrong ones,
  * so a wrong answer is counted as a failed op. */
class ChecksSpec extends AnyFunSuite {

  private val tables = TableGen.nycLike(
    TableGen.CollectionConfig(numGroups = 2, pairsPerGroup = 24, minKeys = 300, maxKeys = 900), seed = 3L)
  private val sketches = tables.map(t => t.id -> CorrelationSketch.fromColumns(t.keys, t.values, 128)).toMap
  private val (queries, corpusIds) = QueryWorkload.split(tables, seed = 3L)
  private val corpus = corpusIds.map(id => id -> sketches(id))
  private val index = new SketchIndex(corpus.toMap)
  private val q = sketches(queries.head)
  private val expected = QueryPath.expected(q, corpus)

  test("split halves every group and interleaves the groups in the query list") {
    assert(queries.size == 24 && corpus.size == 24)
    assert((queries.toSet ++ corpusIds).size == 48)
    assert(queries.take(2).map(_.takeWhile(_ != ':')).toSet.size == 2)
    // each group's first query is its median-sized one
    val rows = tables.map(t => t.id -> t.rows).toMap
    val g0 = queries.filter(_.startsWith(queries.head.takeWhile(_ != ':') + ":")).map(rows)
    assert(g0.size == 12 && rows(queries.head) == g0.sorted.apply(6))
  }

  test("query-rp: the correct answer passes; a dropped hit or a wrong score fails") {
    val out = QueryPath.rp(index, q)
    assert(out.hits.nonEmpty && QueryPath.checkRp(out, expected))
    assert(!QueryPath.checkRp(out.copy(hits = out.hits.tail), expected))
    assert(!QueryPath.checkRp(out.copy(ranked = out.ranked.tail), expected))
    val (id, score) = out.ranked.head
    assert(!QueryPath.checkRp(out.copy(ranked = (id, score + 1e-6) +: out.ranked.tail), expected))
  }

  test("query-risk: the correct answer passes; a perturbed score or a swapped order fails") {
    val ranked = QueryPath.risk(index, q)
    assert(QueryPath.checkRisk(ranked, expected))
    val (id, score) = ranked.head
    assert(!QueryPath.checkRisk((id, score * (1 + 1e-6)) +: ranked.tail, expected))
    assert(!QueryPath.checkRisk(ranked(1) +: ranked.head +: ranked.drop(2), expected))
  }

  test("traced ops return what the plain ops return, and unrolled estimates equal apply") {
    val tr = new Trace(1 << 12)
    assert(QueryPath.rpTraced(tr, index, q) == QueryPath.rp(index, q))
    val k = QueryPath.riskTraced(tr, index, q)
    assert(k.ranked == QueryPath.risk(index, q))
    assert(QueryPath.unrolledMatches(index, q, k))
    assert(!QueryPath.unrolledMatches(index, q, k.copy(cands = k.cands.map(c => c.copy(rb = c.rb + 1.0)))))
  }

  test("ingest: a correct sketch passes; a perturbed value or a dropped key fails") {
    val t = tables.head
    val local = CorrelationSketch.fromColumns(t.keys, t.values, 128)
    val bottom = Checks.bottomK(t.keys, 128)
    assert(Checks.sketchMatches(local, local, bottom))
    val perturbed = local.copy(values = local.values.updated(0, local.values(0) + 1e-6 * math.max(1.0, math.abs(local.values(0)))))
    assert(!Checks.sketchMatches(perturbed, local, bottom))
    val dropped = local.copy(keyHashes = local.keyHashes.tail, values = local.values.tail)
    assert(!Checks.sketchMatches(dropped, local, bottom))
  }

  test("the tail is the highest percentile with ten samples beyond it") {
    val s = Stats.summarize(Array.tabulate(40)(i => (40 - i).toDouble))
    assert(s.n == 40 && s.tail == 30.0 && s.tailPct == 75.0 && s.p50 == 20.5)
    assertThrows[IllegalArgumentException](Stats.summarize(Array.fill(10)(1.0)))
  }

  test("self time excludes child spans") {
    val tr = new Trace(16)
    tr.span(Span.Op) { tr.span(Span.Search)(Thread.sleep(20)); Thread.sleep(5) }
    val totals = tr.totals
    val (opCount, opIncl, opSelf) = totals(Span.Op)
    assert(opCount == 1 && totals(Span.Search)._1 == 1)
    assert(opSelf == opIncl - totals(Span.Search)._2)
    assert(opSelf >= 5e6 && opSelf < 20e6)
  }
}
