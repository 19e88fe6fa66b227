package corrbench

import repro.core.{CorrelationSketch, Hashing}

/** Output checks shared by the workloads. */
object Checks {

  /** Equal within 1e-9, relative for magnitudes above 1. */
  def close(a: Double, b: Double): Boolean =
    math.abs(a - b) <= 1e-9 * math.max(1.0, math.abs(b))

  /** Key hashes of the `k` distinct keys with the smallest g = hu∘h
    * (Theorem 1), ascending by hash. */
  def bottomK(keys: Array[String], k: Int): Array[Int] =
    keys.map(Hashing.h).distinct.sortBy(h => (Hashing.hu(h), h)).take(k).sorted

  /** A built sketch is correct when it holds exactly the bottom-k keys and
    * matches the local build of the same column, values within 1e-9. */
  def sketchMatches(got: CorrelationSketch, local: CorrelationSketch, bottom: Array[Int]): Boolean =
    got.keyHashes.sameElements(bottom) && got.keyHashes.sameElements(local.keyHashes) &&
      got.values.length == local.values.length &&
      got.values.indices.forall(i => close(got.values(i), local.values(i))) &&
      got.exact == local.exact && got.rows == local.rows &&
      got.xMin == local.xMin && got.xMax == local.xMax
}
