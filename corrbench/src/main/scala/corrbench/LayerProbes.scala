package corrbench

import repro.core.{AggFn, CorrelationSketch, Hashing, SketchBuffer}
import repro.data.KVTable

import java.io.{ByteArrayOutputStream, ObjectOutputStream}

/** Per-layer measurements of the sketch build, run in the traced run over
  * the workload's own input rows.
  */
object LayerProbes {

  final case class Build(hashNsPerRow: Double, bufferNsPerRow: Double, allocBytesPerRow: Double,
                         mergeUs: Double, gateRejectFrac: Double)

  /** Repeats of each timed pass; the probe reports their median. */
  val Repeats = 3

  @volatile private var sink = 0

  private def timeNs(body: => Unit): Long = { val t = System.nanoTime(); body; System.nanoTime() - t }

  /** `Hashing.h` and `SketchBuffer.update` over every row, each the median
    * of [[Repeats]]; partial buffers over `slices` row slices merged per
    * table; and the exact share of rows whose `hu` lies above their table's
    * final sketch threshold, which a threshold gate could reject. (A row at
    * the threshold belongs to the kept k-th key, so it is not counted.)
    */
  def build(tables: Seq[KVTable], sketchSize: Int, slices: Int): Build = {
    val rows = tables.map(_.rows.toLong).sum.toDouble
    val hashNs = Stats.median((1 to Repeats).map { _ =>
      timeNs(tables.foreach { t =>
        var i = 0; var acc = 0
        while (i < t.keys.length) { acc ^= Hashing.h(t.keys(i)); i += 1 }
        sink ^= acc
      }).toDouble
    })
    var finals: Seq[CorrelationSketch] = Nil
    val buffer = (1 to Repeats).map { _ =>
      val a0 = Jvm.threadAllocatedBytes
      var bufs: Seq[SketchBuffer] = Nil
      val ns = timeNs {
        bufs = tables.map { t =>
          val b = new SketchBuffer(sketchSize)
          var i = 0
          while (i < t.keys.length) { b.update(t.keys(i), t.values(i)); i += 1 }
          b
        }
      }
      val bytes = Jvm.threadAllocatedBytes - a0
      finals = bufs.map(_.result(AggFn.Mean))
      (ns.toDouble, bytes.toDouble)
    }
    val mergeNs = tables.map { t =>
      val parts = (0 until slices).map { s =>
        val b = new SketchBuffer(sketchSize)
        var i = s * t.rows / slices
        val end = (s + 1) * t.rows / slices
        while (i < end) { b.update(t.keys(i), t.values(i)); i += 1 }
        b
      }
      timeNs(parts.reduce(_ merge _)).toDouble
    }
    val rejected = tables.lazyZip(finals).map { (t, sk) =>
      val th = sk.threshold
      t.keys.count(k => Hashing.hu(Hashing.h(k)) > th).toLong
    }.sum
    Build(
      hashNsPerRow = hashNs / rows,
      bufferNsPerRow = Stats.median(buffer.map(_._1)) / rows,
      allocBytesPerRow = Stats.median(buffer.map(_._2)) / rows,
      mergeUs = mergeNs.sum / tables.size / 1e3,
      gateRejectFrac = rejected / rows)
  }

  /** Mean Java-serialized size of a sketch, in bytes. */
  def sketchBytes(sketches: Iterable[CorrelationSketch]): Double =
    sketches.iterator.map { sk =>
      val bytes = new ByteArrayOutputStream()
      val out = new ObjectOutputStream(bytes)
      out.writeObject(sk)
      out.close()
      bytes.size.toDouble
    }.sum / sketches.size
}
