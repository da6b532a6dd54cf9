(** Top-to-bottom cell design flow — the Acacia-style prototype ([63]) the
    paper's conclusion points to: specification to verified layout through
    every stage of the hierarchical methodology of Section 2.1.

    Top-down: topology selection -> circuit sizing -> design verification.
    Bottom-up: layout generation -> extraction -> detailed verification.
    When the extracted circuit misses a specification, the flow "closes the
    loop" ([51]): it resynthesises with the observed layout parasitics
    folded into the load and retries (at most [max_redesigns] times). *)

type stage_log = {
  stage : string;
  detail : string;
  seconds : float;
}

type outcome = {
  template : Mixsyn_circuit.Template.t;
  sizing : Mixsyn_synth.Sizing.result;
  layout : Mixsyn_layout.Cell_flow.report;
  pre_layout : Mixsyn_synth.Spec.performance;
  post_layout : Mixsyn_synth.Spec.performance;
      (** performance of the extracted netlist *)
  meets_post_layout : bool;
  redesigns : int;
  diagnostics : Mixsyn_check.Diagnostic.t list;
      (** everything the static gates reported (warnings and infos; a flow
          that returns at all had zero errors) *)
  log : stage_log list;
}

val better_layout :
  Mixsyn_layout.Cell_flow.report ->
  Mixsyn_layout.Cell_flow.report ->
  Mixsyn_layout.Cell_flow.report
(** Preference order across placement retries: a completely routed layout
    beats any incomplete one; at equal completeness the smaller area wins. *)

val size_stage :
  ?tech:Mixsyn_circuit.Tech.t ->
  ?strategy:Mixsyn_synth.Sizing.strategy ->
  ?schedule:Mixsyn_opt.Anneal.schedule ->
  ?stage_cache:bool ->
  ?seed:int ->
  context:(string * float) list ->
  specs:Mixsyn_synth.Spec.t list ->
  objectives:Mixsyn_synth.Spec.objective list ->
  Mixsyn_circuit.Template.t ->
  Mixsyn_synth.Sizing.result
(** The flow's sizing stage, exposed for batch executors and benchmarks:
    {!Mixsyn_synth.Sizing.size} behind the process-global cross-job stage
    cache.  The cache content-addresses the run with
    {!Mixsyn_synth.Sizing.cache_key}, so two jobs with identical sizing
    inputs share one computation; misses are single-flight (concurrent
    workers reaching the same key compute it once, the rest wait for the
    value).  [stage_cache:false] bypasses the cache entirely — results are
    bit-identical either way, which is what the journal identity tests
    compare.  Hit/miss totals appear in {!Mixsyn_util.Telemetry} under
    ["flow.stage_cache.hits"] / ["flow.stage_cache.misses"]. *)

val stage_cache_stats : unit -> int * int
(** Cumulative (hits, misses) of the cross-job sizing stage cache. *)

val stage_cache_hit_rate : unit -> float
(** Hits over total lookups of the stage cache; 0 before any lookup. *)

val clear_stage_cache : unit -> unit
(** Empty the stage cache and zero its local counters (benchmarks use this
    so a timed cold run is actually cold). *)

val run :
  ?tech:Mixsyn_circuit.Tech.t ->
  ?seed:int ->
  ?max_redesigns:int ->
  ?candidates:Mixsyn_circuit.Template.t list ->
  ?checks:bool ->
  ?stage_cache:bool ->
  specs:Mixsyn_synth.Spec.t list ->
  objectives:Mixsyn_synth.Spec.objective list ->
  context:(string * float) list ->
  unit ->
  outcome
(** Full flow for a cell-level specification set.

    Each sizing pass goes through {!size_stage}, so across a batch, jobs
    whose sizing inputs coincide reuse one result ([stage_cache:false]
    opts out; outcomes are bit-identical either way).

    Each layout pass tries up to 3 placement seeds in order and stops at
    the first routed one; when none routes, the smallest-area attempt
    wins, ties to the earlier seed.  The outcome depends only on [seed].

    Unless [checks] is [false], a static pre-flight gate runs first:
    {!Mixsyn_check.Bounds} certifies interval performance bounds over
    every candidate's parameter box, and a specification provably
    unsatisfiable on {e all} candidates raises
    {!Mixsyn_check.Lint.Check_failed} with a [feas.infeasible-spec]
    error before any sizing or layout work.  Hand-annotated feasibility
    ranges that claim performance outside the certified enclosure are
    reported as [feas.annotation-drift] warnings.  When the interval
    screen rejects every candidate, the flow continues with the full
    candidate list but emits a [feas.no-feasible-topology] warning (and
    bumps the [flow.no-feasible-topology] telemetry counter) instead of
    silently widening.  The finished design must then pass the three
    static gates of {!Mixsyn_check} (netlist ERC, layout DRC, constraint
    audit); error/warning totals land in {!Mixsyn_util.Telemetry}
    under [check.<stage>.*].

    The selected template's parameter box is contracted by
    branch-and-prune ({!Mixsyn_check.Bounds.contract}) before sizing:
    sub-boxes whose certified enclosure proves a spec violated are cut
    away.  The contraction is sound and deterministic;
    when nothing prunes, the template value is unchanged and the sizing
    trajectory is bit-identical to a run without contraction.

    Every stage boundary (and the annealer's move loop below it) polls
    {!Mixsyn_util.Cancel.guard}, so a run under an ambient cancellation
    token — as installed per job by {!Batch} — stops within milliseconds
    of its deadline by raising {!Mixsyn_util.Cancel.Cancelled}.
    @raise Failure when no candidate topology is feasible.
    @raise Mixsyn_check.Lint.Check_failed when a static gate reports an
    [Error] diagnostic. *)

val pp_outcome : Format.formatter -> outcome -> unit
