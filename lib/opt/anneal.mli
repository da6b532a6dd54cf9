(** Generic simulated annealing.

    The workhorse of both the frontend (OPTIMAN, FRIDGE, OBLX sizing) and the
    backend (KOAN placement, WRIGHT floorplanning), so it is polymorphic in
    the state type and fully deterministic given the RNG. *)

type schedule = {
  t_start : float;       (** initial temperature (cost units) *)
  t_end : float;         (** stop when the temperature drops below this *)
  cooling : float;       (** geometric factor per stage, e.g. 0.93 *)
  moves_per_stage : int; (** proposals at each temperature *)
}

val default_schedule : schedule

val auto_schedule : ?moves_per_stage:int -> cost_scale:float -> unit -> schedule
(** Schedule whose initial temperature accepts almost any move of magnitude
    [cost_scale] and whose final temperature freezes them.
    @raise Invalid_argument when [cost_scale] is not strictly positive
    (including [nan]). *)

type 'a problem = {
  initial : 'a;
  cost : 'a -> float;
  neighbor : Mixsyn_util.Rng.t -> temp01:float -> 'a -> 'a;
      (** propose a move; [temp01] falls 1 -> 0 over the run, for
          range-limited moves near freeze-out *)
}

type 'a outcome = {
  best : 'a;
  best_cost : float;
  accepted : int;
  proposed : int;
  stages : int;
}

val minimize :
  ?schedule:schedule -> rng:Mixsyn_util.Rng.t -> 'a problem -> 'a outcome
(** Reports move statistics to {!Mixsyn_util.Telemetry} under
    ["anneal.proposed"] / ["anneal.accepted"] / ["anneal.stages"].  The
    stage count is additionally capped at an internal backstop so a nearly
    flat (yet valid) schedule still terminates.
    @raise Invalid_argument when the schedule cannot terminate:
    [cooling] outside [(0, 1)], or [t_start]/[t_end] not positive. *)

val minimize_multistart :
  ?schedule:schedule ->
  ?jobs:int ->
  restarts:int ->
  rng:Mixsyn_util.Rng.t ->
  'a problem ->
  'a outcome
(** [restarts] independent chains, each on its own {!Mixsyn_util.Rng.split_n}
    stream, evaluated concurrently on the {!Mixsyn_util.Pool} ([jobs]
    defaults to [Pool.default_jobs ()]), each claimed as its own unit of
    work.  Returns the lowest-cost chain's best (ties to the lowest restart
    index) with move statistics summed over all chains; the outcome
    depends only on [rng] and [restarts], never on [jobs].
    [restarts = 1] is exactly [minimize ~rng] — the single chain consumes
    [rng] directly, without splitting.
    @raise Invalid_argument when [restarts < 1] or the schedule is
    divergent. *)

(** {2 Move-based annealing over mutable state}

    The pure {!problem} API clones the whole state per proposal — fine for
    parameter vectors, ruinous for placement, where every clone rebuilds
    geometry and the resulting allocation storm makes OCaml 5's
    stop-the-world minor collections serialize all domains.  A {!moves}
    problem owns {e one} mutable state per chain and evaluates each
    proposal as an O(move) cost {e delta} instead. *)

type 's moves = {
  create : unit -> 's;
      (** fresh chain state at the initial configuration; called once per
          chain, on the domain that runs the chain *)
  full_cost : 's -> float;
      (** exact cost of the current configuration (used at chain start,
          once per stage to resync accumulated deltas, and for the final
          reported cost) *)
  propose : 's -> Mixsyn_util.Rng.t -> temp01:float -> float;
      (** apply one tentative move in place and return its exact weighted
          cost delta; the annealer follows up with [commit] or [revert] *)
  commit : 's -> unit;  (** keep the tentative move *)
  revert : 's -> unit;  (** undo it exactly *)
  remember : 's -> unit;  (** snapshot the current configuration as best *)
  recall : 's -> unit;  (** restore the last remembered snapshot *)
}

val minimize_moves :
  ?schedule:schedule -> rng:Mixsyn_util.Rng.t -> 's moves -> 's outcome
(** One chain over one mutable state.  The RNG draw sequence matches
    {!minimize} exactly (one acceptance draw, only when [delta > 0]), the
    running cost is resynced with [full_cost] at every stage so
    accumulated-delta float drift never exceeds one stage, and [best_cost]
    is the exact [full_cost] of the restored best state.  [outcome.best]
    is the chain's state after [recall] — mutable, owned by the caller.
    Reports the same telemetry counters as {!minimize}.
    @raise Invalid_argument for divergent schedules, as {!minimize}. *)

val minimize_moves_multistart :
  ?schedule:schedule ->
  ?jobs:int ->
  restarts:int ->
  rng:Mixsyn_util.Rng.t ->
  's moves ->
  's outcome
(** Independent chains on the pool, one {!moves.create}d state per chain
    (nothing mutable is shared), with the same split-stream/
    restart-order reduction as {!minimize_multistart} — the outcome
    depends only on [rng] and [restarts], never on [jobs].
    @raise Invalid_argument when [restarts < 1] or the schedule is
    divergent. *)
