(** High-throughput batch synthesis: many {!Flow.run} jobs, one journal.

    The production workload the ROADMAP points at is not one spec-to-layout
    flow but thousands, executed unattended — so the unit of robustness
    moves from the run to the job.  A batch reads a {e manifest} (JSONL,
    one job per line), executes the jobs concurrently on the shared
    {!Mixsyn_util.Pool}, and streams one record per job to an append-only
    JSONL {e journal}:

    - a per-job wall-clock timeout cancels the job cooperatively (at flow
      stage boundaries and inside the annealer's move loop) and records it
      as [Timed_out] rather than crashing the batch;
    - raised exceptions (solver divergence, {!Mixsyn_check.Lint.Check_failed},
      NaN guards) become structured [Failed] records carrying the error and
      its diagnostics while every other job continues;
    - bounded retries re-run a failing job with a deterministically
      perturbed seed before it is declared failed.

    The journal doubles as a checkpoint: records are flushed in manifest
    order as soon as every earlier job has finished, so an interrupted
    journal is always a clean prefix (plus at most one truncated line,
    which resume discards).  Re-running the same manifest against the same
    journal skips recorded jobs and appends the rest — and because records
    carry no wall-clock data, the completed journal is byte-identical
    whether the run was interrupted or not, at any job count.

    {2 Manifest format}

    One JSON object per line.  [id] is required and must be unique;
    everything else has defaults:
    {v
{"id": "ota-70db", "seed": 13,
 "specs": [{"name": "gain_db", "at_least": 70.0},
           {"name": "ugf_hz", "at_least": 1e7},
           {"name": "phase_margin_deg", "at_least": 60.0}],
 "objectives": [{"minimize": "power_w"}],
 "context": {"cl": 5e-12},
 "topology": "miller-ota", "max_redesigns": 2, "timeout_s": 120}
    v}
    Spec bounds are [at_least], [at_most] or [between: [lo, hi]], each with
    an optional [weight]; objectives are [minimize]/[maximize] with an
    optional [weight].  [topology] restricts candidate selection to one
    template; [timeout_s] overrides the batch-wide timeout for that job.
    A [fault] field ("raise" or "hang") injects a deliberate failure —
    that is how the CI smoke proves the failure taxonomy without waiting
    for a real divergence. *)

type fault =
  | Raise  (** the job raises immediately — exercises the [Failed] path *)
  | Hang   (** the job spins at a guard point until its timeout cancels it *)

type job = {
  job_id : string;
  seed : int;  (** default 13, like {!Flow.run} *)
  specs : Mixsyn_synth.Spec.t list;
  objectives : Mixsyn_synth.Spec.objective list;
  context : (string * float) list;
  topology : string option;      (** restrict candidates to this template *)
  max_redesigns : int option;
  timeout_s : float option;      (** per-job override of the batch timeout *)
  fault : fault option;
}

type failure = {
  error : string;                (** stable one-line classification *)
  diagnostics : string list;     (** e.g. lint rule ids with locations *)
}

(** Why a prefiltered job never ran: the spec the certified interval
    bounds ({!Mixsyn_check.Bounds}) prove unsatisfiable on every candidate
    topology the job could have selected, and the hull of the excluding
    enclosures. *)
type infeasibility = {
  inf_spec : string;   (** the provably unsatisfiable spec's metric name *)
  inf_bound : string;  (** its bound, rendered (e.g. ["at least 1000"]) *)
  inf_lo : float;      (** certified achievable range, lower end *)
  inf_hi : float;      (** certified achievable range, upper end *)
}

type status =
  | Completed of Mixsyn_util.Json.t  (** the executor's result object *)
  | Failed of failure
  | Timed_out
  | Infeasible of infeasibility
      (** skipped by the static prefilter; the executor never ran *)
  | Cancelled
      (** explicitly cancelled by a client of the synthesis service
          ({!Serve}); batch runs never produce it, but resume must parse
          it, because a serve journal is a valid batch journal *)

type record = {
  rec_id : string;
  rec_seed : int;  (** the (possibly retry-perturbed) seed actually used *)
  attempts : int;  (** [0] for prefiltered jobs *)
  status : status;
}

type summary = {
  total : int;          (** manifest size *)
  completed : int;
  failed : int;
  timed_out : int;
  cancelled : int;      (** only non-zero when resuming a serve journal *)
  prefiltered : int;    (** jobs skipped as provably infeasible *)
  skipped : int;        (** jobs already recorded in the journal *)
  run_jobs : int;       (** worker count the batch ran with *)
  elapsed_s : float;
  cache_hits : int;     (** sizing stage-cache hits during this run *)
  cache_misses : int;   (** sizing stage-cache misses during this run *)
  domain_busy_s : (int * float) list;
      (** per-domain busy seconds during this run (slot 0 is the calling
          domain), from the [pool.domain.<i>.busy_us] telemetry counters *)
  records : record list;  (** every record, in manifest order *)
}

(** {2 Manifest and journal IO} *)

val job_of_json : Mixsyn_util.Json.t -> (job, string) result

val manifest_of_string : string -> (job list, string) result
(** Parse JSONL manifest text.  Blank lines and [#] comment lines are
    skipped; errors carry the line number; duplicate ids are rejected. *)

val load_manifest : string -> (job list, string) result
(** {!manifest_of_string} over a file's contents. *)

val record_to_json : record -> Mixsyn_util.Json.t
val record_of_json : Mixsyn_util.Json.t -> (record, string) result

val read_journal : string -> record list * int
(** Parse a journal file: the records of its longest valid prefix and that
    prefix's byte length (a trailing truncated or malformed line is not
    part of it).  A missing file reads as [([], 0)]. *)

(** {2 The in-order journal writer}

    The checkpoint machinery {!run} is built on, exported so the synthesis
    service ({!Serve}) journals its accepted jobs through the exact same
    path — which is what makes a serve journal byte-identical to the
    equivalent batch journal.  Records may be pushed in any completion
    order under any index; lines reach the disk strictly in index order,
    each flushed as soon as every earlier index has been written, so the
    file is always a clean prefix of the final journal. *)

type journal_writer

val journal_open : string -> record list * journal_writer
(** Open [path] as a journal to append to: parse its longest valid prefix,
    truncate any interruption damage after it, and return the recorded
    prefix plus a writer whose index 0 is the next line to append.
    Indices passed to {!journal_push} are relative to this open — resume
    code maps them onto its own pending order. *)

val journal_push : journal_writer -> int -> record -> unit
(** [journal_push w i r] buffers [r] as line [i] (0-based, relative to
    {!journal_open}) and flushes every contiguous buffered line.  The
    record is rendered to canonical JSON on the calling thread, off the
    writer lock.  Thread-safe. *)

val journal_close : journal_writer -> unit
(** Close the underlying channel.  Records buffered behind a gap (an index
    that was never pushed) are dropped — exactly what interruption at that
    point would have produced. *)

(** {2 Execution} *)

val flow_executor : ?stage_cache:bool -> job -> seed:int -> Mixsyn_util.Json.t
(** The default executor: {!Flow.run} with the job's specification set,
    rendered to the deterministic result object journals record (topology,
    cost, evaluations, redesigns, post-layout performance, check-warning
    count — never wall-clock times).  [stage_cache] (default [true])
    routes the sizing stage through the process-global cross-job cache
    ({!Flow.size_stage}); records are byte-identical either way. *)

val run_job :
  ?timeout_s:float ->
  ?retries:int ->
  ?executor:(job -> seed:int -> Mixsyn_util.Json.t) ->
  ?on_attempt:(Mixsyn_util.Cancel.token -> unit) ->
  job ->
  record
(** Execute one job with the batch robustness controls but no journal:
    attempt [1 + retries] times on exceptions (attempt [k] uses
    [seed + 1_000_003 * k]), map an expired timeout to [Timed_out]
    (timeouts are not retried), and trap everything else into [Failed].
    [on_attempt] is called with each attempt's {!Mixsyn_util.Cancel}
    token before the attempt starts — the hook the service uses to cancel
    a job that is already running (cancellation surfaces as [Timed_out];
    the caller that requested it remaps to [Cancelled]). *)

val prefilter_job : job -> record option
(** The static feasibility screen, exported for callers that accept jobs
    one at a time (the service): [Some record] with an [Infeasible] status
    when certified interval bounds prove a spec unsatisfiable on every
    candidate topology, [None] when the job must execute.  A pure function
    of the job — never wall-clock, never random — so prefiltered records
    keep the journal's byte-identity.  Fault-injected jobs and jobs naming
    an unknown topology always return [None]. *)

val run :
  ?jobs:int ->
  ?timeout_s:float ->
  ?retries:int ->
  ?prefilter:bool ->
  ?stage_cache:bool ->
  ?executor:(job -> seed:int -> Mixsyn_util.Json.t) ->
  journal:string ->
  job list ->
  summary
(** Run a whole manifest against [journal].  Jobs already recorded are
    skipped; a truncated trailing line is cut before appending; the rest
    execute on up to [jobs] (default {!Mixsyn_util.Pool.default_jobs})
    domains.  Each job is one pool item, so the flow inside it runs inline
    rather than contending for the pool.  Whole jobs are the unit of work
    stealing: each domain claims one job at a time from the shared queue,
    keeping its warm per-domain workspaces across the consecutive jobs it
    claims and staying busy until the manifest drains even when job costs
    differ by orders of magnitude.  Each worker
    serializes its own records to canonical JSON off the writer lock; the
    writer only orders lines and appends them in manifest order, flushed
    as soon as contiguous, so an interruption at any point leaves a
    resumable prefix.

    Unless [stage_cache] is [false], jobs share the process-global sizing
    stage cache ({!Flow.size_stage}): manifests with repeated (topology,
    specs, objectives, context, seed) combinations size once and reuse the
    result, single-flight under concurrency.  Journals are byte-identical
    with the cache on or off; the summary reports this run's hit/miss
    delta and the per-domain busy seconds.

    Unless [prefilter] is [false], every job first passes through the
    static feasibility screen: a job with a spec that
    {!Mixsyn_check.Bounds} proves unsatisfiable on all of its candidate
    topologies is journalled as [Infeasible] (with the spec, its bound and
    the certified enclosure) without ever entering the executor — no
    annealing, no layout, no timeout slot.  The decision is a pure
    function of the job, so prefiltered records preserve the journal's
    byte-identity across worker counts and resumes.  Fault-injected jobs
    and jobs naming an unknown topology are never prefiltered.  Skip
    counts land in the [batch.prefiltered] telemetry counter.

    For a pure executor the finished journal's bytes depend only on the
    manifest, never on [jobs] or on how often the run was interrupted.

    @raise Invalid_argument on duplicate manifest ids, a journal record
    whose id is not in the manifest, or [retries < 0]. *)

val summary_to_json : summary -> Mixsyn_util.Json.t

val pp_summary : Format.formatter -> summary -> unit
(** Counts, throughput, the telemetry rollup and one line per non-completed
    job. *)
