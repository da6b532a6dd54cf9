(** Memoizing evaluation cache for simulation-in-the-loop optimizers.

    Keys are compared with structural equality, so a [float array]
    parameter vector works directly.  Hit/miss counts are mirrored into
    {!Telemetry} under ["<name>.hits"] / ["<name>.misses"].

    Domain-safe: one table behind one mutex.  Misses are
    {e single-flight}: while one domain computes a key, others asking for
    the same key block until the value lands instead of re-running the
    evaluator.  Computations run outside the lock, and results are
    bit-identical to a sequential run. *)

type ('k, 'v) t

val create : ?size:int -> string -> ('k, 'v) t
(** [create name] — a cache with an initial capacity of [size] entries
    (default 256). *)

val find_or_compute : ('k, 'v) t -> 'k -> ('k -> 'v) -> 'v
(** Return the cached value for the key, computing and storing it on the
    first visit.  The computation runs at most once per distinct key even
    under concurrent first visits (single-flight); if it raises, the
    exception propagates to the computing caller, waiters retry, and
    nothing is cached. *)

val hits : ('k, 'v) t -> int
val misses : ('k, 'v) t -> int
val length : ('k, 'v) t -> int

val hit_rate : ('k, 'v) t -> float
(** Hits over total lookups; 0 before any lookup. *)

val clear : ('k, 'v) t -> unit
(** Drop every cached entry and zero the per-cache hit/miss counters (the
    cumulative {!Telemetry} mirrors are not rewound).  Benchmarks call
    this between repeats so a timed "cold" run is actually cold.
    In-flight computations are unaffected and land into the emptied
    table. *)
