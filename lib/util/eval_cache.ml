(* Memoization for the expensive evaluators inside optimization loops.

   Annealers and the Nelder-Mead polish revisit parameter vectors —
   rejected moves at clamped bounds, the polish re-scoring the annealed
   optimum — and each revisit used to re-run a full DC + AC/AWE
   evaluation.  The cache keys on the exact (clamped) vector, so results
   are bit-identical to the uncached path; hit/miss counts flow into the
   telemetry registry under "<name>.hits" / "<name>.misses".

   One table behind one mutex: the sizing and detector memos are created
   per call and used by one domain, and the only cache shared across
   domains, the flow's stage cache, sees a few dozen lookups per batch.
   Misses are single-flight: the first domain to miss a key marks it in
   flight and computes outside the lock; later domains asking for the same
   key wait on the condition variable instead of re-running the evaluator.
   With a deterministic evaluator the observed values are identical either
   way — single-flight only removes duplicated work. *)

type ('k, 'v) t = {
  hits_key : string;    (* telemetry names built once, not per lookup *)
  misses_key : string;
  table : ('k, 'v) Hashtbl.t;
  in_flight : ('k, unit) Hashtbl.t;
  lock : Mutex.t;
  settled : Condition.t;        (* signalled when a flight lands or aborts *)
  mutable hits : int;
  mutable misses : int;
}

let create ?(size = 256) name =
  { hits_key = name ^ ".hits";
    misses_key = name ^ ".misses";
    table = Hashtbl.create size;
    in_flight = Hashtbl.create 8;
    lock = Mutex.create ();
    settled = Condition.create ();
    hits = 0;
    misses = 0 }

let locked c f =
  Mutex.lock c.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) f

(* The annealing hot loop takes the hit path thousands of times per
   second, so it is written flat: one lock, one table probe, no closures,
   no [Fun.protect] (nothing under the lock can raise). *)
let rec acquire c key f =
  (* called with [c.lock] held: hit, join an existing flight, or open one *)
  match Hashtbl.find_opt c.table key with
  | Some v ->
    c.hits <- c.hits + 1;
    Mutex.unlock c.lock;
    Telemetry.count c.hits_key;
    v
  | None ->
    if Hashtbl.mem c.in_flight key then begin
      Condition.wait c.settled c.lock;
      acquire c key f
    end
    else begin
      c.misses <- c.misses + 1;
      Hashtbl.add c.in_flight key ();
      Mutex.unlock c.lock;
      Telemetry.count c.misses_key;
      let land_flight cache =
        Mutex.lock c.lock;
        (match cache with
         | Some v -> Hashtbl.replace c.table key v
         | None -> ());
        Hashtbl.remove c.in_flight key;
        Condition.broadcast c.settled;
        Mutex.unlock c.lock
      in
      match f key with
      | v ->
        land_flight (Some v);
        v
      | exception exn ->
        (* an aborted flight releases its waiters; the next asker retries
           the computation rather than caching the failure *)
        land_flight None;
        raise exn
    end

let find_or_compute c key f =
  Mutex.lock c.lock;
  acquire c key f

let hits c = locked c (fun () -> c.hits)
let misses c = locked c (fun () -> c.misses)
let length c = locked c (fun () -> Hashtbl.length c.table)

let hit_rate c =
  let h, m = locked c (fun () -> (c.hits, c.misses)) in
  let total = h + m in
  if total = 0 then 0.0 else float_of_int h /. float_of_int total

(* drops entries and zeroes the local hit/miss counters (the Telemetry
   mirrors are left alone — they are cumulative by design).  In-flight
   computations are untouched: they land into the emptied table. *)
let clear c =
  locked c (fun () ->
      Hashtbl.reset c.table;
      c.hits <- 0;
      c.misses <- 0)
