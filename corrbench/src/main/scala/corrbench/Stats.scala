package corrbench

import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._

/** Median and tail of one timed region's op latencies.
  *
  * The tail is the highest percentile that still has `TailBeyond` samples
  * beyond it: with n sorted samples that is rank n − 10 (1-based), i.e. the
  * (n − 10)/n percentile. A max-of-n "p99.9" rests on one sample and drifts
  * from run to run; this statistic always rests on ten.
  */
final case class Summary(n: Int, p50: Double, tail: Double, tailPct: Double) {
  def describe(label: String): String =
    f"$label: n=$n p50=$p50%.4f ms tail=p$tailPct%.2f=$tail%.4f ms (${Stats.TailBeyond} samples beyond it)"
}

object Stats {
  val TailBeyond = 10

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2.0
  }

  def summarize(ms: Array[Double]): Summary = {
    val n = ms.length
    require(n > TailBeyond, s"a tail needs more than $TailBeyond samples, got $n")
    val s = ms.sorted
    Summary(n, median(s.toIndexedSeq), s(n - TailBeyond - 1), 100.0 * (n - TailBeyond) / n)
  }
}

/** JVM-wide counters read around a timed region. */
object Jvm {
  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Total collection time of all collectors, in ms. */
  def gcMillis: Long = gcBeans.map(_.getCollectionTime).filter(_ > 0).sum

  /** Bytes allocated so far by all live threads (Spark's task threads included). */
  def allocatedBytes: Long = threads.getThreadAllocatedBytes(threads.getAllThreadIds).filter(_ > 0).sum

  def threadAllocatedBytes: Long = threads.getCurrentThreadAllocatedBytes

  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.toSeq
    .filter(p => p.getType == java.lang.management.MemoryType.HEAP && p.getCollectionUsage != null)

  /** Live heap, in MB: the heap each of three full collections left behind,
    * read as the collectors record it when they finish (so objects that
    * background threads allocate afterwards are not counted), and the least
    * of the three. */
  def retainedHeapMb(): Double =
    (1 to 3).map { _ =>
      System.gc()
      heapPools.map(_.getCollectionUsage.getUsed).sum / 1048576.0
    }.min
}

/** One timed region: per-op latencies plus the JVM counters around it. */
final case class Timed(ms: Array[Double], wallSec: Double, gcMs: Long, allocBytes: Long) {
  def ops: Int = ms.length
  def summary: Summary = Stats.summarize(ms)
}

object Timed {

  /** Times whole passes over a fixed list of `passLen` ops until `seconds`
    * have elapsed and at least `minOps` ops have run. A pass is never cut,
    * so every run measures the same mix of ops whatever their costs.
    * `op(i)` runs the i-th op of the list; its outputs are kept, in order,
    * for checking after the timed region. `more` may end the region early,
    * between passes (the traced run stops before its span buffer fills).
    */
  def passes[A](seconds: Double, passLen: Int, minOps: Int, more: () => Boolean = () => true)
               (op: Int => A): (Timed, Vector[(Int, A)]) = {
    val ms = Array.newBuilder[Double]
    val out = Vector.newBuilder[(Int, A)]
    var done = 0
    val gc0 = Jvm.gcMillis
    val alloc0 = Jvm.allocatedBytes
    val t0 = System.nanoTime()
    while ((System.nanoTime() - t0 < seconds * 1e9 || done < minOps) && (done == 0 || more())) {
      var i = 0
      while (i < passLen) {
        val s = System.nanoTime()
        val a = op(i)
        ms += (System.nanoTime() - s) / 1e6
        out += (i -> a)
        i += 1
      }
      done += passLen
    }
    val wall = (System.nanoTime() - t0) / 1e9
    (Timed(ms.result(), wall, Jvm.gcMillis - gc0, Jvm.allocatedBytes - alloc0), out.result())
  }

  /** The run's timed region. Untraced, whole passes over `plain`. Traced,
    * each pass runs the `plain` list and then the `traced` one, so both see
    * the same JVM state and the trace overhead compares like with like.
    * Returns the region, the latencies of the plain ops and every output. */
  def region[A](o: Options, passLen: Int, more: () => Boolean = () => true)
               (plain: Int => A, traced: Int => A): (Timed, Timed, Vector[(Int, A)]) = {
    val (t, outs) =
      if (!o.trace) passes(o.seconds, passLen, o.minOps)(plain)
      else passes(o.seconds, 2 * passLen, 2 * o.minOps, more)(i => if (i < passLen) plain(i) else traced(i - passLen))
    val plainMs = t.ms.lazyZip(outs).collect { case (ms, (i, _)) if i < passLen => ms }.toArray
    (t, t.copy(ms = plainMs), outs)
  }

  /** Warm-up: ops in list order, cycling, until `seconds` have elapsed;
    * outputs dropped. */
  def warmUp(seconds: Double, passLen: Int)(op: Int => Any): Unit = {
    val t0 = System.nanoTime()
    var i = 0
    while (System.nanoTime() - t0 < seconds * 1e9) { op(i); i = (i + 1) % passLen }
  }
}
