(** ISAAC-style symbolic small-signal analysis.

    Builds the MNA matrix with symbolic entries (gm_<dev>, gds_<dev>,
    g_<res>, c_<cap>, cgs_<dev>, ...) and extracts exact transfer functions
    by Cramer's rule with a memoised Laplace determinant expansion.  Circuit
    sizes up to full-opamp complexity (10-12 system unknowns) are practical,
    matching the capability the paper reports for ISAAC. *)

type rational = {
  num : Expr.t;
  den : Expr.t;
}

val transfer :
  Mixsyn_circuit.Netlist.t ->
  out:Mixsyn_circuit.Netlist.net ->
  rational
(** Symbolic transfer from the netlist's AC excitation (the sources with a
    nonzero [ac] field) to the output net voltage; runs inside a
    [symbolic.transfer] telemetry span. *)

val cramer_matrices :
  Mixsyn_circuit.Netlist.t ->
  out:Mixsyn_circuit.Netlist.net ->
  Expr.t array array * Expr.t array array
(** The symbolic MNA matrix, and the same matrix with the output column
    replaced by the excitation: {!transfer} is the ratio of the second's
    determinant to the first's.  Exposed for tests. *)

val determinant : Expr.t array array -> Expr.t
(** Memoised Laplace expansion; exposed for tests. *)

val valuation :
  ?tech:Mixsyn_circuit.Tech.t ->
  Mixsyn_circuit.Netlist.t ->
  Mixsyn_engine.Mna.op ->
  string ->
  float
(** Symbol values at an operating point: [valuation nl op "gm_m1"] etc.
    [valuation ~tech nl op] builds the whole symbol table at once; the
    returned function is one hash lookup, never mutates, and may be called
    from several domains.  A MOS defines [gm_]/[gds_]/[gmb_]/[cgs_]/
    [cgd_]/[cdb_]/[csb_], a VCCS [gm_] (a MOS of the same name wins), a
    resistor [g_] and a capacitor [c_]; the first device of a name wins.
    @raise Not_found for unknown symbols. *)

val eval_rational : (string -> float) -> rational -> Complex.t -> Complex.t

val num_den_coeffs : (string -> float) -> rational -> float array * float array
(** Numeric numerator/denominator polynomial coefficients in [s]. *)

val term_count : rational -> int
(** Total number of symbolic terms (numerator + denominator). *)

val symbols : rational -> string list
(** Sorted distinct symbols of numerator and denominator. *)

val bound_num_den :
  (string -> Mixsyn_util.Interval.t) ->
  rational ->
  Mixsyn_util.Interval.t array * Mixsyn_util.Interval.t array
(** Interval analogue of {!num_den_coeffs}: each coefficient interval
    encloses the concrete coefficient for every symbol valuation drawn
    from the supplied ranges. *)

val bound_dc_gain :
  (string -> Mixsyn_util.Interval.t) -> rational -> Mixsyn_util.Interval.t
(** Certified enclosure of num0/den0 (the DC gain) over the symbol box;
    {!Mixsyn_util.Interval.whole} when the denominator's constant
    coefficient may vanish. *)

val bound_gbw :
  (string -> Mixsyn_util.Interval.t) -> rational -> Mixsyn_util.Interval.t
(** Certified enclosure of the single-pole gain-bandwidth estimate
    |num0| / (2 pi |den1|) over the symbol box. *)

val bound_dominant_pole :
  (string -> Mixsyn_util.Interval.t) -> rational -> Mixsyn_util.Interval.t
(** Certified enclosure of the dominant-pole frequency estimate
    |den0| / (2 pi |den1|) over the symbol box. *)

val pp : Format.formatter -> rational -> unit
