package repro.core

/** Aggregate functions applied to repeated keys during sketch construction
  * (§3.1, "Handling Repeated Keys").
  *
  * The paper requires the aggregation to be computable in a streaming
  * fashion; for a *distributed* one-pass build the per-key state must also
  * be mergeable across partitions, which restricts us to commutative
  * aggregates. Each entry carries (sum, count, min, max) so every
  * supported aggregate can be finalized from the same state.
  */
sealed trait AggFn extends Serializable {
  /** Finalize a per-key state into the single numeric value used by the
    * correlation estimators. */
  def finalize(sum: Double, count: Long, min: Double, max: Double): Double
}

object AggFn {
  case object Mean extends AggFn {
    def finalize(sum: Double, count: Long, min: Double, max: Double): Double = sum / count
  }
  case object Sum extends AggFn {
    def finalize(sum: Double, count: Long, min: Double, max: Double): Double = sum
  }
  case object Count extends AggFn {
    def finalize(sum: Double, count: Long, min: Double, max: Double): Double = count.toDouble
  }
  case object Min extends AggFn {
    def finalize(sum: Double, count: Long, min: Double, max: Double): Double = min
  }
  case object Max extends AggFn {
    def finalize(sum: Double, count: Long, min: Double, max: Double): Double = max
  }
}
