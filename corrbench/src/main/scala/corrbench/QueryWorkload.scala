package corrbench

import repro.core.CorrelationSketch
import repro.data.{KVTable, TableGen}
import repro.index.SketchIndex

import java.util.SplittableRandom
import scala.collection.mutable.ArrayBuffer

/** query-rp and query-risk: a single client runs §5.5 queries in a closed
  * loop, one at a time, as an analyst waits for each answer. Both use the same
  * corpus, setup and query list.
  *
  * query-rp ranks by s1 = |r_p|: search and sketch join do almost all the
  * work, and no estimator beyond Pearson runs, so an estimator change must
  * leave it flat. query-risk ranks by s4 = r_p·ci_h through
  * `CandidateEstimates.apply` and `Scoring.rank`, as users call it today:
  * the estimators do nearly all the work and search almost none.
  */
object QueryWorkload {
  val SketchSize = 1024
  val WarmUpSec = 8.0

  /** 8 groups × 256 pairs, half of each group queries and half corpus, so a
    * group has 128 corpus pairs and every query fills its top-100. The 1024
    * corpus sketches hold about 1M postings, far beyond CPU cache. A group's
    * key domain is drawn from a narrow band so that seeds differ in which
    * pairs they draw, not in corpus size; each pair keeps 30–100% of its
    * domain, so sketches still range from exact to truncated. */
  val Collection: TableGen.CollectionConfig =
    TableGen.CollectionConfig(numGroups = 8, pairsPerGroup = 256, minKeys = 2500, maxKeys = 3000)

  /** Ops per pass: prefixes of the same query list. Many distinct queries
    * keep a run's median from hanging on which queries the seed drew; an
    * s4 query costs ~60× an s1 query, so its pass is shorter (~10 s here). */
  val RpPass = 512
  val RiskPass = 40

  final class Setup(val sketches: Map[String, CorrelationSketch], val index: SketchIndex,
                    val corpus: IndexedSeq[(String, CorrelationSketch)], val queries: IndexedSeq[String],
                    val rows: Long, val buildSec: Double, val indexMs: Double, val seconds: Double)

  def setup(seed: Long): Setup = {
    val t0 = System.nanoTime()
    val tables = TableGen.nycLike(Collection, seed)
    val t1 = System.nanoTime()
    val sketches = tables.map(t => t.id -> CorrelationSketch.fromColumns(t.keys, t.values, SketchSize)).toMap
    val t2 = System.nanoTime()
    val (queries, corpusIds) = split(tables, seed)
    val corpus = corpusIds.map(id => id -> sketches(id))
    val index = new SketchIndex(corpus.toMap)
    val t3 = System.nanoTime()
    new Setup(sketches, index, corpus, queries, tables.map(_.rows.toLong).sum,
      (t2 - t1) / 1e9, (t3 - t2) / 1e6, (t3 - t0) / 1e9)
  }

  private def group(id: String): String = id.takeWhile(_ != ':')

  /** The seed picks half of each group's pairs as queries. The query list
    * interleaves the groups, and takes each group's queries in an order that
    * spreads over their sizes (median, quartiles, octiles, ...). So every
    * prefix of the list covers small and large queries alike, and its cost
    * depends little on the seed. */
  def split(tables: Seq[KVTable], seed: Long): (IndexedSeq[String], IndexedSeq[String]) = {
    val rng = new SplittableRandom(seed)
    val groups = tables.groupBy(t => group(t.id)).toIndexedSeq.sortBy(_._1).map { case (_, g) =>
      val a = g.sortBy(_.id).toArray
      var i = a.length - 1
      while (i > 0) { val j = rng.nextInt(i + 1); val t = a(i); a(i) = a(j); a(j) = t; i -= 1 }
      val (qs, cs) = a.splitAt(a.length / 2)
      val bySize = qs.sortBy(t => (t.rows, t.id))
      (spread(bySize.length).map(r => bySize(r).id), cs.map(_.id).toIndexedSeq)
    }
    val qs = groups.map(_._1)
    val queries = (0 until qs.map(_.length).max).flatMap(r => qs.flatMap(_.lift(r)))
    (queries, groups.flatMap(_._2))
  }

  /** Ranks 0 until m in van der Corput order (m/2, m/4, 3m/4, m/8, ...). */
  private def spread(m: Int): IndexedSeq[Int] = {
    def radicalInverse(i: Int): Double = {
      var x = 0.0; var f = 0.5; var n = i
      while (n > 0) { if ((n & 1) == 1) x += f; f /= 2; n >>= 1 }
      x
    }
    Iterator.from(1).map(i => (radicalInverse(i) * m).toInt).distinct.take(m).toIndexedSeq
  }

  def run(o: Options, risk: Boolean): Result = {
    val name = if (risk) "query-risk" else "query-rp"
    val setupSec = ArrayBuffer.empty[Double]
    var s: Setup = null
    for (k <- 0 to o.setups) { // k = 0 is the untimed warm-up setup
      s = null
      System.gc() // each setup starts on a clean heap, not the last one's garbage
      s = setup(o.seed)
      if (k > 0) setupSec += s.seconds
    }
    val heapMb = Jvm.retainedHeapMb()
    val passLen = if (risk) RiskPass else RpPass
    val qs = s.queries.take(passLen).map(s.sketches)
    lazy val expected = qs.map(q => QueryPath.expected(q, s.corpus))
    val tr = new Trace(if (o.trace) 1 << 21 else 1)
    var passSpans = 0
    def traced(i: Int): Any = {
      val before = tr.size
      val out = if (risk) QueryPath.riskTraced(tr, s.index, qs(i)) else QueryPath.rpTraced(tr, s.index, qs(i))
      passSpans = math.max(passSpans, (tr.size - before) * passLen)
      out
    }
    val plain: Int => Any =
      if (risk) i => QueryPath.risk(s.index, qs(i)) else i => QueryPath.rp(s.index, qs(i))
    Timed.warmUp(WarmUpSec, passLen)(plain)
    val (region, timed, outs) = Timed.region(o, passLen, () => tr.free > 2 * passSpans)(plain, traced)
    val tracedEnd = tr.size
    val failed = outs.count {
      case (i, out: QueryPath.RpOut)   => !QueryPath.checkRp(out, expected(i % passLen))
      case (i, out: QueryPath.RiskOut) => !QueryPath.checkRisk(out.ranked, expected(i % passLen))
      case (i, out: Seq[_])            => !QueryPath.checkRisk(out.asInstanceOf[QueryPath.Ranked], expected(i % passLen))
    }
    val notes = Seq(timed.summary.describe(name),
      s"corpus: ${s.corpus.size} sketches, ${s.rows} rows; query list: $passLen of ${s.queries.size} queries")
    if (!o.trace)
      return Result(timed.ops, failed, checksPassed = true, Report.endToEnd(setupSec.toSeq, timed, heapMb), notes)

    // The unrolled estimates must equal CandidateEstimates.apply (checked on
    // the first queries); then the other ranker runs on a few queries, so
    // every layer has spans on both workloads.
    var checksOk = true
    for (i <- 0 until 4) {
      val k = QueryPath.riskTraced(tr, s.index, qs(i))
      checksOk &&= QueryPath.unrolledMatches(s.index, qs(i), k) && QueryPath.checkRisk(k.ranked, expected(i)) &&
        QueryPath.checkRp(QueryPath.rpTraced(tr, s.index, qs(i)), expected(i))
    }

    // Build-layer probes over two groups of the corpus rows, and the Spark
    // build of one group, checked against the local sketches.
    val tables = TableGen.nycLike(Collection, o.seed)
    val groups = tables.map(t => group(t.id)).distinct
    val probeTables = tables.filter(t => groups.take(2).contains(group(t.id)))
    val buildProbe = LayerProbes.build(probeTables, SketchSize, Sparks.threads)
    checksOk &&= sparkProbe(tr, tables.filter(t => group(t.id) == groups.head), s.sketches)

    val probes = Report.Probes(buildProbe, s.buildSec * 1e3, s.indexMs,
      LayerProbes.sketchBytes(s.corpus.map(_._2)),
      Stats.median(expected.map(_.overlapping.toDouble / s.corpus.size)))
    val tracedP50 = Stats.median(tr.opMillis(0, tracedEnd).toIndexedSeq)
    tr.write(Main.workDir("trace").toPath.resolve(s"$name-${o.seed}.tsv").toFile)
    Result(region.ops, failed, checksOk, Report.perLayer(tr, probes, region, timed, tracedP50),
      notes ++ Report.shares(tr, 0, tracedEnd))
  }

  /** Three traced Spark scans and builds of `tables`; each build must match
    * the local sketches. */
  private def sparkProbe(tr: Trace, tables: Seq[KVTable], local: Map[String, CorrelationSketch]): Boolean = {
    val spark = Sparks.start()
    try {
      val df = TableGen.toDF(spark, tables).cache()
      df.count()
      val bottoms = tables.map(t => t.id -> Checks.bottomK(t.keys, SketchSize)).toMap
      (1 to 3).forall { _ =>
        Sparks.tracedScan(tr, df)
        val built = Sparks.tracedBuild(tr, df, SketchSize)
        built.keySet == bottoms.keySet &&
          built.forall { case (id, sk) => Checks.sketchMatches(sk, local(id), bottoms(id)) }
      }
    } finally spark.stop()
  }
}
