(** Flow-wide observability: named monotonic counters and nested timed
    spans in one global registry.

    Every hot path of the synthesis flow reports here — DC Newton
    iterations, AWE order fallbacks, annealer move statistics, router grid
    expansions, sizing-cache hits — so the evaluation-count cost story of
    the paper (simulation-in-the-loop is ~10^3 x an equation evaluation) is
    measurable rather than anecdotal.

    The registry is global and process-wide; call {!reset} between
    experiments.  Span durations use [Unix.gettimeofday], i.e. wall
    seconds — the quantity parallel evaluation actually shrinks.

    Domain-safe: counters are sharded per domain with merge-on-read, so a
    hot loop counting from many {!Pool} workers at once only ever locks
    its own domain's shard (no cross-domain contention on the write path);
    span updates are serialized behind one mutex, and the span nesting
    context is domain-local; {!Pool} hands each helper task the caller's
    context, so spans opened on a helper nest under the caller's open
    span. *)

type span = {
  span_name : string;
  calls : int;
  seconds : float;  (** cumulative wall seconds across all calls *)
  children : span list;  (** in creation order *)
}

val reset : unit -> unit
(** Clear every counter and span, and abandon any open span stack. *)

(** {2 Counters} *)

val count : string -> unit
(** Increment a named counter by one, creating it at zero first. *)

val add : string -> int -> unit
(** Increment a named counter by an arbitrary amount. *)

val counter : string -> int
(** Current value; 0 for a counter never touched. *)

val counters_alist : unit -> (string * int) list
(** All counters, sorted by name. *)

val top_counters : ?limit:int -> unit -> (string * int) list
(** The [limit] (default 8) heaviest counters, by value descending then
    name — the rollup a batch summary leads with. *)

val pp_rollup : ?limit:int -> Format.formatter -> unit -> unit
(** One line: ["a=12, b=3, ..."] over {!top_counters};
    ["(no counters)"] when the registry is empty.  When the stage-cache
    counters ([flow.stage_cache.hits]/[.misses]) or the per-domain busy
    counters ([pool.domain.<i>.busy_us]) are live, derived segments
    follow: ["stage_cache=87%hit, domain0=1.20s, domain1=1.10s"]. *)

(** {2 Spans} *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span: nested [with_span] calls
    attach as children, repeated calls at the same position accumulate
    [calls]/[seconds] into one node.  Exception-safe: the span closes on
    raise and the exception propagates. *)

type context
(** A domain's stack of open spans. *)

val context : unit -> context
(** The calling domain's open spans. *)

val with_context : context -> (unit -> 'a) -> 'a
(** [with_context ctx f] runs [f] with [ctx] as this domain's open spans,
    so spans [f] opens attach under the innermost span of [ctx]; the
    domain's own stack is restored afterwards, also on raise. *)

val spans : unit -> span list
(** Snapshot of the span forest. *)

val span_seconds : string -> float
(** Total seconds across every span with this name, anywhere in the forest. *)

val span_calls : string -> int
(** Total calls across every span with this name. *)

(** {2 Reports} *)

val pp_report : Format.formatter -> unit -> unit
val report : unit -> string

val to_json_value : unit -> Json.t
(** The full registry as a canonical {!Json} value:
    [{"counters": {name: n, ...}, "spans": [...]}] — the structure the
    service's [/metrics] endpoint embeds, so every float in it round-trips
    through the same shortest-representation printer as the journal. *)

val to_json : unit -> string
(** [Json.to_string (to_json_value ())]. *)
