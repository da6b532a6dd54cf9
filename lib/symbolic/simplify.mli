(** Magnitude-based simplification of symbolic transfer functions.

    ISAAC's key insight: a raw symbolic determinant has far too many terms
    for human insight or fast evaluation, but at a nominal operating point
    most terms are negligible.  Pruning drops, within each power of [s],
    every term whose magnitude is below [threshold] times the dominant term
    of that power.  The cut is relative to the dominant term alone, so the
    error it discards is not bounded by [threshold]: many small terms may
    sum to far more than it (ISAAC's cumulative rule, which bounds the
    dropped sum, is not implemented).  [max_coeff_error] reports the error
    actually made.

    Both functions evaluate each term once per call, count those
    evaluations in the [symbolic.term_evals] telemetry counter, and run
    inside a [symbolic.prune] / [symbolic.magnitude_error] span. *)

type report = {
  simplified : Analyze.rational;
  terms_before : int;
  terms_after : int;
  max_coeff_error : float;
      (** worst relative change of any kept s-coefficient *)
}

val prune :
  value:(string -> float) ->
  threshold:float ->
  Analyze.rational ->
  report

val magnitude_error :
  value:(string -> float) ->
  exact:Analyze.rational ->
  approx:Analyze.rational ->
  freqs:float array ->
  float
(** Maximum relative magnitude deviation of [approx] from [exact] over the
    frequency grid. *)
