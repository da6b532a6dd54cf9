(* A fixed-size domain pool for the coarse, embarrassingly-parallel loops
   (batch/serve jobs, annealing multi-starts, GA populations, corner
   sweeps).

   Workers are spawned once, on first demand, and reused for every
   subsequent parallel call; an [at_exit] hook joins them so the process
   always terminates cleanly.  Results are written into an index-addressed
   array, so a parallel run is bit-identical to the sequential one whenever
   the per-item function is pure — the guarantee the optimizer loops rely
   on.  Parallelism is one level deep: every item runs as a pool
   participant, so a call made from inside an item runs inline (no nested
   fan-out, hence no pool deadlock and no helpers queued behind long
   sibling items). *)

let hard_cap = 64

(* precedence: set_default_jobs > MIXSYN_JOBS > recommended_domain_count *)
let override = Atomic.make 0

let clamp_jobs n = max 1 (min hard_cap n)

(* the one validation point for every way a job count enters the system:
   the --jobs flag, the MIXSYN_JOBS variable, and programmatic overrides
   all funnel through here, so zero/negative counts are rejected with the
   same message everywhere instead of silently clamping to 1 *)
let validate_jobs n =
  if n < 1 then
    Error (Printf.sprintf "job count must be at least 1 (got %d)" n)
  else Ok (min hard_cap n)

let jobs_of_string s =
  match int_of_string_opt (String.trim s) with
  | None -> Error (Printf.sprintf "invalid job count %S (expected a positive integer)" s)
  | Some n -> validate_jobs n

let set_default_jobs n =
  match validate_jobs n with
  | Ok n -> Atomic.set override n
  | Error msg -> invalid_arg ("Pool.set_default_jobs: " ^ msg)

let env_jobs () =
  match Sys.getenv_opt "MIXSYN_JOBS" with
  | None -> None
  | Some s -> (match jobs_of_string s with Ok n -> Some n | Error _ -> None)

let default_jobs () =
  let o = Atomic.get override in
  if o > 0 then o
  else
    match env_jobs () with
    | Some n -> n
    | None -> clamp_jobs (Domain.recommended_domain_count ())

(* Running more domains than the machine has cores is never free: the
   extra domains time-share a core, every minor collection still stops all
   of them, and the measured "speedup" goes below 1.  The helper budget of
   every parallel call is therefore capped at [cores - 1], so a --jobs
   value above the core count runs core-count-wide.  Results are unchanged
   either way (determinism contract); only where the work runs moves. *)
let available_cores () = clamp_jobs (Domain.recommended_domain_count ())

(* helper tasks (beyond the calling domain) a parallel call over [n] items
   queues: never more than jobs - 1, never more than there are items to
   share, never more than spare physical cores *)
let helper_budget ~jobs ~n = max 0 (min (min (jobs - 1) (available_cores () - 1)) (n - 1))

(* In OCaml 5 a minor collection stops *every* domain, so an allocating
   item on one worker stalls the whole pool.  Workers therefore get a
   generous minor heap on spawn (fewer, larger stop-the-world pauses), and
   every parallel call surfaces the collection counts it caused through
   Telemetry. *)
let worker_minor_heap_words = 1 lsl 22 (* 4M words *)

(* ---- the worker pool ------------------------------------------------- *)

let lock = Mutex.create ()
let work_available = Condition.create ()
let queue : (unit -> unit) Queue.t = Queue.create ()
let workers : unit Domain.t list ref = ref []
let worker_total = ref 0
let stopping = ref false

(* true while this domain runs a pool item (always on workers); parallel
   calls made there run inline *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* stable per-domain slot for utilization accounting: the calling domain
   is slot 0, workers take 1.. in spawn order.  Counter names are
   pre-rendered so the hot path does no formatting. *)
let pool_slot : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let slot_busy_names =
  Array.init hard_cap (fun i -> Printf.sprintf "pool.domain.%d.busy_us" i)

let note_busy t0 =
  let us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
  Telemetry.add slot_busy_names.(Domain.DLS.get pool_slot land (hard_cap - 1)) us

let rec worker_loop () =
  Mutex.lock lock;
  while Queue.is_empty queue && not !stopping do
    Condition.wait work_available lock
  done;
  match Queue.take_opt queue with
  | None ->
    (* stopping with an empty queue *)
    Mutex.unlock lock
  | Some task ->
    Mutex.unlock lock;
    (* tasks trap their own exceptions; a raise here would kill the worker *)
    (try task () with _ -> ());
    worker_loop ()

let ensure_workers wanted =
  Mutex.lock lock;
  if not !stopping then
    while !worker_total < wanted && !worker_total < hard_cap - 1 do
      incr worker_total;
      let slot = !worker_total in
      workers :=
        Domain.spawn (fun () ->
            Domain.DLS.set in_worker true;
            Domain.DLS.set pool_slot slot;
            (* size the worker's minor heap before it runs any task *)
            Gc.set { (Gc.get ()) with Gc.minor_heap_size = worker_minor_heap_words };
            worker_loop ())
        :: !workers
    done;
  Mutex.unlock lock

let worker_count () =
  Mutex.lock lock;
  let n = !worker_total in
  Mutex.unlock lock;
  n

let shutdown () =
  Mutex.lock lock;
  stopping := true;
  Condition.broadcast work_available;
  let ws = !workers in
  workers := [];
  worker_total := 0;
  Mutex.unlock lock;
  List.iter Domain.join ws;
  Mutex.lock lock;
  stopping := false;
  Mutex.unlock lock

let () = at_exit shutdown

(* ---- parallel execution ---------------------------------------------- *)

(* run [f] with this domain marked as a pool participant, so every
   parallel call inside runs inline *)
let sequential_scope f =
  let prev = Domain.DLS.get in_worker in
  Domain.DLS.set in_worker true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set in_worker prev) f

(* run [f i a.(i)] for every i in [0, n) across the caller plus [helpers]
   helper tasks and return the results in index order.  Participants
   claim one item at a time, so a fast participant takes over a slow one's
   share.  On failure the exception of the smallest failing index is
   re-raised in the caller — deterministic no matter how items were
   interleaved.  Helpers run under the caller's telemetry context, so
   their spans nest under the caller's open span. *)
let run_items ~helpers f (a : 'a array) : 'b array =
  let n = Array.length a in
  let next = Atomic.make 0 in
  let slots = Array.make n None in
  let failure = ref None in
  let failure_lock = Mutex.create () in
  let record i exn bt =
    Mutex.lock failure_lock;
    (match !failure with
     | Some (j, _, _) when j <= i -> ()
     | Some _ | None -> failure := Some (i, exn, bt));
    Mutex.unlock failure_lock
  in
  let failed () =
    Mutex.lock failure_lock;
    let f = !failure <> None in
    Mutex.unlock failure_lock;
    f
  in
  let work () =
    let continue = ref true in
    while !continue do
      let i = Atomic.fetch_and_add next 1 in
      if i >= n || failed () then continue := false
      else
        match f i a.(i) with
        | v -> slots.(i) <- Some v
        | exception exn -> record i exn (Printexc.get_raw_backtrace ())
    done
  in
  ensure_workers helpers;
  let ctx = Telemetry.context () in
  let helpers_done = Atomic.make 0 in
  let done_lock = Mutex.create () in
  let done_cond = Condition.create () in
  let helper () =
    let t0 = Unix.gettimeofday () in
    Telemetry.with_context ctx work;
    note_busy t0;
    Mutex.lock done_lock;
    Atomic.incr helpers_done;
    Condition.broadcast done_cond;
    Mutex.unlock done_lock
  in
  Mutex.lock lock;
  for _ = 1 to helpers do
    Queue.push helper queue
  done;
  Condition.broadcast work_available;
  Mutex.unlock lock;
  let t0 = Unix.gettimeofday () in
  sequential_scope work;
  note_busy t0;
  Mutex.lock done_lock;
  while Atomic.get helpers_done < helpers do
    Condition.wait done_cond done_lock
  done;
  Mutex.unlock done_lock;
  match !failure with
  | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt
  | None -> Array.map Option.get slots

let effective_jobs jobs n =
  let j = match jobs with Some j -> clamp_jobs j | None -> default_jobs () in
  min j (max 1 n)

let parallel_mapi ?jobs f a =
  let n = Array.length a in
  if n = 0 then [||]
  else if Domain.DLS.get in_worker then Array.mapi f a
  else begin
    let jobs = effective_jobs jobs n in
    if jobs = 1 then sequential_scope (fun () -> Array.mapi f a)
    else begin
      let t0 = Gc.quick_stat () in
      let r = run_items ~helpers:(helper_budget ~jobs ~n) f a in
      let t1 = Gc.quick_stat () in
      Telemetry.count "pool.parallel_runs";
      Telemetry.add "pool.minor_collections" (t1.Gc.minor_collections - t0.Gc.minor_collections);
      Telemetry.add "pool.major_collections" (t1.Gc.major_collections - t0.Gc.major_collections);
      r
    end
  end

let parallel_map ?jobs f a = parallel_mapi ?jobs (fun _ x -> f x) a

let parallel_init ?jobs n f =
  if n < 0 then invalid_arg "Pool.parallel_init";
  parallel_map ?jobs f (Array.init n Fun.id)
