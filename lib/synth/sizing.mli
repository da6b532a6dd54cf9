(** Circuit sizing: the frontend strategies of Section 2.2, one API.

    - [Design_plan p] — knowledge-based execution (IDAC/OASYS, Fig. 1a);
    - [Equation_annealing] — simulated annealing over the analytic design
      equations (OPTIMAN [10] with ISAAC-style models);
    - [Simulation_annealing] — full DC+AC simulation inside the annealing
      loop (FRIDGE [22]);
    - [Awe_annealing] — DC solve + AWE small-signal evaluation
      (the ASTRX/OBLX [23] cost-function style).

    The annealing strategies finish with a Nelder-Mead polish of the
    annealed optimum.  Whatever the strategy, the result is verified with
    a full simulation —
    the "design verification" step of the hierarchical methodology
    (Section 2.1). *)

type strategy =
  | Design_plan of Design_plan.t
  | Equation_annealing
  | Simulation_annealing
  | Awe_annealing

type result = {
  strategy_name : string;
  params : float array;
  performance : Spec.performance;  (** from the verifying full simulation *)
  predicted : Spec.performance;    (** what the strategy's own evaluator saw *)
  cost : float;
  evaluations : int;
  elapsed_s : float;
  meets_specs : bool;
}

val size :
  ?tech:Mixsyn_circuit.Tech.t ->
  ?seed:int ->
  ?schedule:Mixsyn_opt.Anneal.schedule ->
  ?context:(string * float) list ->
  ?guardband:float ->
  ?cache:bool ->
  strategy ->
  Mixsyn_circuit.Template.t ->
  specs:Spec.t list ->
  objectives:Spec.objective list ->
  result
(** [context] carries environment quantities (e.g. [("cl", 5e-12)] for the
    load capacitance): entries naming template parameters are pinned during
    optimization, and all entries are visible to design plans as
    [spec_<name>] bindings.

    [guardband] (default 1.0) tightens every one-sided bound by that factor
    *inside the optimizer only*; the result is still verified and scored
    against the original specifications.  This is how equation-based flows
    compensate their first-order model error in practice.

    [cache] (default [true]) memoizes the strategy evaluator on the clamped
    parameter vector, so annealer re-visits and the Nelder-Mead polish stop
    re-running the full simulation/AWE for points already scored.  Results
    are bit-identical with the cache on or off; [evaluations] counts actual
    evaluator invocations, and hit/miss counts appear in
    {!Mixsyn_util.Telemetry} under ["sizing.cache.hits"] /
    ["sizing.cache.misses"]. *)

val cache_key :
  ?tech:Mixsyn_circuit.Tech.t ->
  ?seed:int ->
  ?schedule:Mixsyn_opt.Anneal.schedule ->
  ?context:(string * float) list ->
  ?guardband:float ->
  strategy ->
  Mixsyn_circuit.Template.t ->
  specs:Spec.t list ->
  objectives:Spec.objective list ->
  string
(** Canonical content-address of the {!size} run those arguments describe —
    a canonical-JSON string over every input that can change the result:
    strategy, the template's {e actual} parameter boxes (contraction and
    pinning included), the full technology record, seed, schedule,
    guardband, and the ordered context/spec/objective lists (order is part
    of the key: the cost function folds violations in list order, so a
    reordering is a different float computation).  [size] is deterministic
    in exactly these inputs, which is what lets a batch share one result
    across jobs without breaking journal byte-identity.  Defaults mirror
    {!size}'s. *)

val evaluator_of_strategy :
  ?tech:Mixsyn_circuit.Tech.t ->
  strategy ->
  Mixsyn_circuit.Template.t ->
  float array ->
  Spec.performance option
(** The raw evaluator each strategy uses internally. *)

val pp_result : Format.formatter -> result -> unit
