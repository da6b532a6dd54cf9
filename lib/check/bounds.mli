(** Certified performance bounds: interval abstract interpretation of the
    design equations and symbolic transfer functions over parameter boxes.

    Soundness contract: {!certify} evaluates the same expression tree as
    the concrete evaluator ({!Mixsyn_synth.Equations.evaluate}), over
    {!Mixsyn_util.Interval} with outward rounding — so for every parameter
    point inside the template box (after clamping and context pinning),
    every concrete metric lies inside its certified interval.  A
    specification that {!infeasible_specs} reports is therefore provably
    unsatisfiable: no optimizer, however patient, can meet it on that
    template.  The converse does not hold — interval enclosures
    over-approximate, so a spec this module does not reject may still be
    unreachable in practice. *)

val box_of_template : Mixsyn_circuit.Template.t -> Mixsyn_util.Interval.t array
(** One interval per template parameter, [[lo, hi]]. *)

val certify_box :
  ?tech:Mixsyn_circuit.Tech.t ->
  string ->
  Mixsyn_util.Interval.t array ->
  (string * Mixsyn_util.Interval.t) list option
(** Certified metric enclosures of the named template's equations over an
    explicit box; adds the derived ["dominant_pole_hz"] (ugf / linear
    gain).  [None] for templates without an equation model. *)

val certify :
  ?tech:Mixsyn_circuit.Tech.t ->
  ?context:(string * float) list ->
  Mixsyn_circuit.Template.t ->
  (string * Mixsyn_util.Interval.t) list
(** {!certify_box} over the template's own parameter box, with [context]
    bindings pinned to points the way {!Mixsyn_synth.Sizing.size} pins
    them (unknown names ignored).  Empty for unmodelled templates. *)

val metric_ranges :
  ?tech:Mixsyn_circuit.Tech.t ->
  ?context:(string * float) list ->
  Mixsyn_circuit.Template.t list ->
  Mixsyn_circuit.Template.t ->
  string ->
  Mixsyn_util.Interval.t option
(** Memoised {!certify} lookup over a candidate list, shaped for
    {!Mixsyn_synth.Topo_select.interval_feasible}'s [?ranges]. *)

val compatible : Mixsyn_util.Interval.t -> Mixsyn_synth.Spec.bound -> bool
(** Can any point of the enclosure satisfy the bound?  [false] for the
    empty interval. *)

val bound_to_string : Mixsyn_synth.Spec.bound -> string
(** ["at least 70"], ["at most 1e-3"], ["between 40 and 60"]. *)

val infeasible_specs :
  ?tech:Mixsyn_circuit.Tech.t ->
  ?context:(string * float) list ->
  Mixsyn_synth.Spec.t list ->
  Mixsyn_circuit.Template.t ->
  (Mixsyn_synth.Spec.t * Mixsyn_util.Interval.t) list
(** The specs provably unsatisfiable on the template, each with the
    certified enclosure that excludes its bound. *)

val feasible :
  ?tech:Mixsyn_circuit.Tech.t ->
  ?context:(string * float) list ->
  Mixsyn_synth.Spec.t list ->
  Mixsyn_circuit.Template.t ->
  bool

val annotation_drift :
  ?tech:Mixsyn_circuit.Tech.t ->
  Mixsyn_circuit.Template.t ->
  Diagnostic.t list
(** [feas.annotation-drift] warnings for every hand-written
    {!Mixsyn_circuit.Template.t.feasibility} range that claims performance
    outside the certified enclosure (beyond a small relative slack). *)

(** {2 Branch-and-prune box contraction} *)

type contraction = {
  c_template : Mixsyn_circuit.Template.t;
      (** the input template with its parameter box shrunk to the hull of
          the surviving sub-boxes; the very same template value when
          nothing was pruned *)
  explored : int;       (** sub-boxes whose enclosure was evaluated *)
  pruned : int;         (** sub-boxes proven spec-infeasible and dropped *)
  c_infeasible : bool;  (** every sub-box pruned: template provably hopeless *)
}

val contract :
  ?tech:Mixsyn_circuit.Tech.t ->
  ?context:(string * float) list ->
  Mixsyn_synth.Spec.t list ->
  Mixsyn_circuit.Template.t ->
  contraction
(** Breadth-first bisection (geometric for log-scaled parameters) of the
    parameter box, dropping sub-boxes whose certified enclosure proves a
    spec violated, up to 63 splits.  Sound: only regions where {e no}
    point can meet the specs are removed, so the contracted box still
    contains every spec-satisfying sizing.
    Deterministic — no randomness, no wall-clock. *)

(** {2 Symbolic transfer-function bounds} *)

val transfer_bounds :
  Mixsyn_circuit.Netlist.t ->
  out:Mixsyn_circuit.Netlist.net ->
  ranges:(string -> Mixsyn_util.Interval.t) ->
  (string * Mixsyn_util.Interval.t) list
(** ISAAC-side bounds: build the symbolic transfer function to [out] and
    enclose ["dc_gain"], ["gbw_hz"] and ["dominant_pole_hz"] over the
    given small-signal symbol ranges (e.g. gm_m1, gds_m1, c_cl). *)
