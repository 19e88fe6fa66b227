package corrbench

import java.io.File

/** Command-line options; the run-shape constants are fixed here so every
  * run of a workload measures the same way. */
final case class Options(workload: String, seed: Long, seconds: Double, trace: Boolean) {
  /** Timed setups per run; setup_s is their median. Each workload first
    * sets up once untimed: that setup pays class loading and JIT
    * compilation, whose cost swings with the machine's load. The traced run
    * reports no setup_s and times one setup. */
  def setups: Int = if (trace) 1 else 3
  /** At least 40 ops, so the tail (rank n − 10 of n) lies at p75 or above
    * and clear of the median. */
  val minOps = 4 * Stats.TailBeyond
}

/** Entry point: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  * Prints notes, then one JSON line with the run's result; exits 1 when any
  * output check failed. */
object Main {
  val Workloads = Seq("ingest-tpch", "query-rp", "query-risk")

  /** Scratch directory for Spark and trace files, set by the launcher. */
  def workDir(sub: String): File = {
    val d = new File(sys.props.getOrElse("corrbench.workdir", "target/run"), sub)
    d.mkdirs()
    d
  }

  def parse(args: Array[String]): Options = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val o = Options(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") match {
      case "0" => false
      case "1" => true
      case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    })
    require(Workloads.contains(o.workload), s"unknown workload ${o.workload}; known: ${Workloads.mkString(", ")}")
    require(o.seconds > 0, "--seconds must be positive")
    o
  }

  def main(args: Array[String]): Unit = {
    // sys.exit on every path: Spark's non-daemon threads would otherwise keep
    // the JVM alive after an exception.
    val code = try {
      val o = parse(args)
      val r = o.workload match {
        case "ingest-tpch" => IngestWorkload.run(o)
        case "query-rp"    => QueryWorkload.run(o, risk = false)
        case "query-risk"  => QueryWorkload.run(o, risk = true)
      }
      r.notes.foreach(println)
      println(r.json)
      if (r.correct) 0 else 1
    } catch {
      case e: Throwable => e.printStackTrace(); 2
    }
    System.out.flush()
    sys.exit(code)
  }
}
