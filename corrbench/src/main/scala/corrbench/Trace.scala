package corrbench

import java.io.{BufferedWriter, File, FileWriter}

/** The span names the benchmark records, one per call into a layer. */
object Span {
  val Op          = 0
  val Search      = 1
  val Join        = 2
  val Pearson     = 3
  val Sort        = 4
  val Estimates   = 5
  val Pm1         = 6
  val Hoeffding   = 7
  val Containment = 8
  val Score       = 9
  val SparkScan   = 10
  val SparkBuild  = 11

  val names: Array[String] = Array(
    "op", "index.search", "core.join", "stats.pearson", "rank.sort", "rank.estimates",
    "stats.pm1", "stats.hoeffding", "core.containment", "rank.score",
    "core.spark.scan", "core.spark.build")
}

/** Span recorder for the traced run.
  *
  * A span is (name, start, end, parent, op id). Spans live in preallocated
  * arrays so recording allocates nothing, and are written to disk once, when
  * the run ends. Spans are opened and closed in stack order on one thread.
  */
final class Trace(val capacity: Int) {
  private val name   = new Array[Int](capacity)
  private val start  = new Array[Long](capacity)
  private val end    = new Array[Long](capacity)
  private val parent = new Array[Int](capacity)
  private val opOf   = new Array[Int](capacity)
  private var n = 0
  private var open = -1
  private var nextOp = 0

  /** Sketch-join rows, counted next to the join spans. */
  var joinRows = 0L

  def size: Int = n
  def free: Int = capacity - n

  def begin(nameId: Int): Int = {
    if (n == capacity) throw new IllegalStateException(s"trace buffer of $capacity spans is full")
    val i = n
    n += 1
    name(i) = nameId
    parent(i) = open
    opOf(i) = if (nameId == Span.Op) { nextOp += 1; nextOp - 1 } else if (open >= 0) opOf(open) else -1
    open = i
    start(i) = System.nanoTime()
    i
  }

  def finish(i: Int): Unit = {
    end(i) = System.nanoTime()
    open = parent(i)
  }

  @inline def span[A](nameId: Int)(body: => A): A = {
    val i = begin(nameId)
    val a = body
    finish(i)
    a
  }

  /** Per span name: (count, inclusive ns, self ns). A span's self time is its
    * duration minus the durations of its direct children. */
  def totals: Array[(Long, Long, Long)] = totals(0, n)

  /** [[totals]] over the spans recorded in [from, until). */
  def totals(from: Int, until: Int): Array[(Long, Long, Long)] = {
    val childNs = new Array[Long](n)
    var i = from
    while (i < until) {
      if (parent(i) >= 0) childNs(parent(i)) += end(i) - start(i)
      i += 1
    }
    val count = new Array[Long](Span.names.length)
    val incl  = new Array[Long](Span.names.length)
    val self  = new Array[Long](Span.names.length)
    i = from
    while (i < until) {
      val d = end(i) - start(i)
      count(name(i)) += 1; incl(name(i)) += d; self(name(i)) += d - childNs(i)
      i += 1
    }
    Array.tabulate(Span.names.length)(k => (count(k), incl(k), self(k)))
  }

  /** Durations in ms of the op spans recorded in [from, until). */
  def opMillis(from: Int, until: Int): Array[Double] = {
    val b = Array.newBuilder[Double]
    var i = from
    while (i < until) { if (name(i) == Span.Op) b += (end(i) - start(i)) / 1e6; i += 1 }
    b.result()
  }

  /** Writes every span as a tab-separated line: name, start, end, parent, op. */
  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val w = new BufferedWriter(new FileWriter(file))
    try {
      w.write("name\tstart_ns\tend_ns\tparent\top\n")
      var i = 0
      while (i < n) {
        w.write(s"${Span.names(name(i))}\t${start(i)}\t${end(i)}\t${parent(i)}\t${opOf(i)}\n")
        i += 1
      }
    } finally w.close()
  }
}
