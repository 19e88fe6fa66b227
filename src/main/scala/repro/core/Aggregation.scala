package repro.core

/** Aggregate functions applied to repeated keys during sketch construction
  * (§3.1, "Handling Repeated Keys").
  *
  * The paper requires the aggregation to be computable in a streaming
  * fashion; for a *distributed* one-pass build the per-key state must also
  * be mergeable across partitions, which restricts us to commutative
  * aggregates. Each function reads the single numeric value used by the
  * correlation estimators off a key's [[KeyState]] (sum, count, min, max).
  */
sealed abstract class AggFn(f: KeyState => Double) extends Serializable {
  def apply(st: KeyState): Double = f(st)
}

object AggFn {
  case object Mean extends AggFn(st => st.sum / st.count)
  case object Sum extends AggFn(_.sum)
  case object Count extends AggFn(_.count.toDouble)
  case object Min extends AggFn(_.min)
  case object Max extends AggFn(_.max)
}
