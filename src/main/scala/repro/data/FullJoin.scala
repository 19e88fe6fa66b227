package repro.data

import repro.core.{AggFn, KeyState}

import scala.collection.mutable

/** Exact (non-sketched) join-correlation ground truth: join two column
  * pairs on their keys, aggregate repeated keys, and return the paired
  * numeric columns of T_{X⋈Y}. This is the expensive baseline the paper
  * compares sketches against (§5.2 actual correlations, §5.5 Table 2
  * full-data timings) and the relevance oracle for Table 1.
  */
object FullJoin {

  /** Aggregate a table's finite values per distinct key with `agg`. NaN and
    * ±Inf rows are skipped, as [[repro.core.SketchBuffer]] skips them, so the
    * ground truth covers the same rows as the sketches it is compared with.
    */
  def aggregateByKey(t: KVTable, agg: AggFn): mutable.HashMap[String, Double] = {
    val states = new mutable.HashMap[String, KeyState]
    var i = 0
    while (i < t.rows) {
      val k = t.keys(i); val v = t.values(i)
      if (java.lang.Double.isFinite(v)) states.getOrElseUpdate(k, new KeyState).add(v)
      i += 1
    }
    states.map { case (k, st) => k -> agg(st) }
  }

  /** The paired numeric columns ⟨X_{X⋈Y}, Y_{X⋈Y}⟩ of the join, each key
    * aggregated with `Mean`, in deterministic (sorted-key) order.
    */
  def joinedColumns(a: KVTable, b: KVTable): (Array[Double], Array[Double]) =
    join(aggregateByKey(a, AggFn.Mean), aggregateByKey(b, AggFn.Mean))

  /** The paired values of two [[aggregateByKey]] results on their shared keys
    * (those with a finite value on both sides), in sorted-key order. */
  def join(ma: collection.Map[String, Double],
           mb: collection.Map[String, Double]): (Array[Double], Array[Double]) = {
    val (small, large, swapped) = if (ma.size <= mb.size) (ma, mb, false) else (mb, ma, true)
    val ks = small.keysIterator.filter(large.contains).toArray.sorted
    val xs = new Array[Double](ks.length)
    val ys = new Array[Double](ks.length)
    var i = 0
    while (i < ks.length) {
      val k = ks(i)
      if (swapped) { xs(i) = large(k); ys(i) = small(k) }
      else { xs(i) = small(k); ys(i) = large(k) }
      i += 1
    }
    (xs, ys)
  }
}
