(** A reusable fixed-size domain pool for the outermost, coarse loops:
    batch/serve jobs, annealing restarts, GA populations and corner sweeps.

    Workers are spawned once (lazily, on first parallel call) and reused by
    every subsequent call; an [at_exit] hook joins them on process exit.
    Results are collected by index, so for a pure per-item function the
    outcome is bit-identical whatever the job count — the determinism
    contract the corner/anneal/GA/batch loops depend on.

    Parallelism is one level deep: every item of a pool call runs as a pool
    participant — on a helper or on the calling domain, at any job count —
    so a pool call made from inside an item runs inline instead of fanning
    out again. *)

val default_jobs : unit -> int
(** Job count used when [?jobs] is omitted.  Precedence:
    {!set_default_jobs} override, then the [MIXSYN_JOBS] environment
    variable, then [Domain.recommended_domain_count ()].  Always in
    [\[1, 64\]]; malformed [MIXSYN_JOBS] values are ignored. *)

val set_default_jobs : int -> unit
(** Process-wide override of {!default_jobs} (the [--jobs] flag).  Values
    above the pool cap (64) clamp to it.
    @raise Invalid_argument for counts below 1 — callers wanting a clean
    error instead should go through {!validate_jobs}. *)

val validate_jobs : int -> (int, string) result
(** The single validation point for job counts, whatever their origin
    ([--jobs], [MIXSYN_JOBS], API): [Error] with a clear message below 1,
    otherwise [Ok] clamped to the pool cap. *)

val jobs_of_string : string -> (int, string) result
(** {!validate_jobs} after integer parsing — the converter the CLI and the
    environment-variable path share. *)

val available_cores : unit -> int
(** [Domain.recommended_domain_count ()] clamped to the pool cap.  Every
    parallel call's helper budget is capped at [available_cores () - 1]:
    a [--jobs] value above the core count runs core-count-wide instead of
    oversubscribing (results unchanged; only placement moves). *)

val parallel_map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map ~jobs f a] is [Array.map f a] evaluated by up to [jobs]
    domains (the caller participates; [jobs - 1] pool workers help, never
    more than the spare cores).  [jobs] defaults to {!default_jobs};
    [jobs = 1] runs inline with no domain machinery.  Participants claim
    one item at a time.  If any application raises, the exception of the
    {e smallest} failing index is re-raised in the caller (deterministic
    under any scheduling) once all workers have drained.

    Spans that an item opens through {!Telemetry.with_span} nest under the
    caller's open span, on helpers as on the calling domain.  Each parallel
    run reports its GC impact through [Telemetry] ([pool.parallel_runs],
    [pool.minor_collections], [pool.major_collections]) and each
    participant its wall time ([pool.domain.<i>.busy_us]).  Workers run
    with a 4M-word minor heap, because OCaml 5 minor collections stop
    every domain. *)

val parallel_mapi : ?jobs:int -> (int -> 'a -> 'b) -> 'a array -> 'b array

val parallel_init : ?jobs:int -> int -> (int -> 'a) -> 'a array
(** [parallel_init n f] is [Array.init n f] in parallel.
    @raise Invalid_argument when [n < 0]. *)

val effective_jobs : int option -> int -> int
(** [effective_jobs jobs n] — the job count a parallel call over [n] items
    requests: [jobs] (or {!default_jobs} when [None]) clamped to the pool
    cap and to [n]. *)

val sequential_scope : (unit -> 'a) -> 'a
(** Run [f] with this domain treated as a pool participant: every parallel
    call made inside runs inline (exception-safe, restores the previous
    state).  For callers that own their own domains, such as the service's
    job workers. *)

val worker_count : unit -> int
(** Live worker domains (for tests and benchmarks). *)

val shutdown : unit -> unit
(** Join all workers.  Idempotent; the pool respawns on the next parallel
    call.  Registered with [at_exit], so explicit calls are only needed in
    tests. *)
