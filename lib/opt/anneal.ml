type schedule = {
  t_start : float;
  t_end : float;
  cooling : float;
  moves_per_stage : int;
}

let default_schedule = { t_start = 10.0; t_end = 1e-4; cooling = 0.93; moves_per_stage = 200 }

let auto_schedule ?(moves_per_stage = 200) ~cost_scale () =
  (* a non-positive cost_scale would silently produce a schedule that
     [minimize] rejects (or never cools); fail here, naming the input *)
  if not (cost_scale > 0.0) then
    invalid_arg
      (Printf.sprintf "Anneal.auto_schedule: cost_scale %g not positive" cost_scale);
  { t_start = 3.0 *. cost_scale; t_end = 1e-5 *. cost_scale; cooling = 0.93; moves_per_stage }

type 'a problem = {
  initial : 'a;
  cost : 'a -> float;
  neighbor : Mixsyn_util.Rng.t -> temp01:float -> 'a -> 'a;
}

type 'a outcome = {
  best : 'a;
  best_cost : float;
  accepted : int;
  proposed : int;
  stages : int;
}

(* a geometric schedule with [cooling >= 1] or [t_end <= 0] never crosses
   its stopping temperature; reject those up front and cap the stage count
   as a backstop against pathological-but-valid schedules *)
let max_stages = 100_000

let validate_schedule where schedule =
  if not (schedule.cooling > 0.0 && schedule.cooling < 1.0) then
    invalid_arg (Printf.sprintf "%s: cooling %g outside (0, 1)" where schedule.cooling);
  if schedule.t_end <= 0.0 then
    invalid_arg (Printf.sprintf "%s: t_end %g not positive" where schedule.t_end);
  if schedule.t_start <= 0.0 then
    invalid_arg (Printf.sprintf "%s: t_start %g not positive" where schedule.t_start)

let minimize ?(schedule = default_schedule) ~rng problem =
  validate_schedule "Anneal.minimize" schedule;
  let accepted = ref 0 and proposed = ref 0 and stages = ref 0 in
  let current = ref problem.initial in
  let current_cost = ref (problem.cost problem.initial) in
  let best = ref !current and best_cost = ref !current_cost in
  let log_span = log (schedule.t_start /. schedule.t_end) in
  let temp = ref schedule.t_start in
  while !temp > schedule.t_end && !stages < max_stages do
    (* cooperative timeout point: a batch job past its deadline stops here
       rather than finishing the whole schedule *)
    Mixsyn_util.Cancel.guard ();
    incr stages;
    let temp01 =
      if log_span <= 0.0 then 0.0 else log (!temp /. schedule.t_end) /. log_span
    in
    for _ = 1 to schedule.moves_per_stage do
      incr proposed;
      let candidate = problem.neighbor rng ~temp01 !current in
      let cost = problem.cost candidate in
      let delta = cost -. !current_cost in
      let accept =
        delta <= 0.0 || Mixsyn_util.Rng.float rng 1.0 < exp (-.delta /. !temp)
      in
      if accept then begin
        incr accepted;
        current := candidate;
        current_cost := cost;
        if cost < !best_cost then begin
          best := candidate;
          best_cost := cost
        end
      end
    done;
    temp := !temp *. schedule.cooling
  done;
  Mixsyn_util.Telemetry.count "anneal.runs";
  Mixsyn_util.Telemetry.add "anneal.proposed" !proposed;
  Mixsyn_util.Telemetry.add "anneal.accepted" !accepted;
  Mixsyn_util.Telemetry.add "anneal.stages" !stages;
  { best = !best; best_cost = !best_cost; accepted = !accepted; proposed = !proposed; stages = !stages }

(* independent restarts evaluated on the domain pool.  Each restart gets
   its own split RNG stream, so the set of chains is a function of [rng]
   alone; the best-of reduction runs in restart order with a strict [<],
   so ties resolve to the lowest restart index — together this makes the
   outcome identical at any job count. *)
let minimize_multistart ?schedule ?jobs ~restarts ~rng problem =
  if restarts < 1 then
    invalid_arg (Printf.sprintf "Anneal.minimize_multistart: %d restarts" restarts);
  if restarts = 1 then minimize ?schedule ~rng problem
  else begin
    Mixsyn_util.Telemetry.count "anneal.multistarts";
    let rngs = Mixsyn_util.Rng.split_n rng restarts in
    let outcomes =
      (* a whole chain is the unit of work *)
      Mixsyn_util.Pool.parallel_map ?jobs
        (fun rng -> minimize ?schedule ~rng problem)
        rngs
    in
    Array.fold_left
      (fun acc o ->
        { best = (if o.best_cost < acc.best_cost then o.best else acc.best);
          best_cost = Float.min acc.best_cost o.best_cost;
          accepted = acc.accepted + o.accepted;
          proposed = acc.proposed + o.proposed;
          stages = acc.stages + o.stages })
      outcomes.(0)
      (Array.sub outcomes 1 (restarts - 1))
  end

(* ---- move-based annealing over mutable state -------------------------- *)

(* The pure [problem] API clones the whole state on every proposal, which
   for placement means rebuilding all geometry per move — the allocation
   storm that serializes OCaml 5 domains.  A [moves] problem instead owns
   ONE mutable state per chain: [propose] applies a tentative move in
   place and returns its exact weighted cost delta, and the annealer then
   [commit]s or [revert]s it.  [remember]/[recall] snapshot and restore
   the best state seen, so the chain can wander after its minimum. *)
type 's moves = {
  create : unit -> 's;
  full_cost : 's -> float;
  propose : 's -> Mixsyn_util.Rng.t -> temp01:float -> float;
  commit : 's -> unit;
  revert : 's -> unit;
  remember : 's -> unit;
  recall : 's -> unit;
}

let minimize_moves ?(schedule = default_schedule) ~rng (m : 's moves) =
  validate_schedule "Anneal.minimize_moves" schedule;
  let accepted = ref 0 and proposed = ref 0 and stages = ref 0 in
  let s = m.create () in
  let current_cost = ref (m.full_cost s) in
  let best_cost = ref !current_cost in
  m.remember s;
  let log_span = log (schedule.t_start /. schedule.t_end) in
  let temp = ref schedule.t_start in
  while !temp > schedule.t_end && !stages < max_stages do
    (* cooperative timeout point, as in [minimize] *)
    Mixsyn_util.Cancel.guard ();
    incr stages;
    (* the running cost accumulates per-move deltas; resync it against the
       exact evaluator once per stage so float drift stays bounded by a
       single stage's worth of moves *)
    current_cost := m.full_cost s;
    let temp01 =
      if log_span <= 0.0 then 0.0 else log (!temp /. schedule.t_end) /. log_span
    in
    for _ = 1 to schedule.moves_per_stage do
      incr proposed;
      let delta = m.propose s rng ~temp01 in
      (* same RNG consumption pattern as [minimize]: the acceptance draw
         happens only when delta > 0, via the short-circuit *)
      let accept =
        delta <= 0.0 || Mixsyn_util.Rng.float rng 1.0 < exp (-.delta /. !temp)
      in
      if accept then begin
        incr accepted;
        m.commit s;
        current_cost := !current_cost +. delta;
        if !current_cost < !best_cost then begin
          best_cost := !current_cost;
          m.remember s
        end
      end
      else m.revert s
    done;
    temp := !temp *. schedule.cooling
  done;
  m.recall s;
  (* the recorded [best_cost] carries accumulated-delta rounding; report
     the exact cost of the restored best state instead *)
  let exact_best = m.full_cost s in
  Mixsyn_util.Telemetry.count "anneal.runs";
  Mixsyn_util.Telemetry.add "anneal.proposed" !proposed;
  Mixsyn_util.Telemetry.add "anneal.accepted" !accepted;
  Mixsyn_util.Telemetry.add "anneal.stages" !stages;
  { best = s; best_cost = exact_best; accepted = !accepted; proposed = !proposed;
    stages = !stages }

(* same determinism contract as [minimize_multistart]: per-chain split RNG
   streams, best-of reduction in restart order with strict [<] —
   the outcome is a function of [rng] and [restarts] alone, never [jobs].
   Each chain calls [m.create] on its own domain, so chains share nothing
   mutable. *)
let minimize_moves_multistart ?schedule ?jobs ~restarts ~rng (m : 's moves) =
  if restarts < 1 then
    invalid_arg (Printf.sprintf "Anneal.minimize_moves_multistart: %d restarts" restarts);
  if restarts = 1 then minimize_moves ?schedule ~rng m
  else begin
    Mixsyn_util.Telemetry.count "anneal.multistarts";
    let rngs = Mixsyn_util.Rng.split_n rng restarts in
    let outcomes =
      Mixsyn_util.Pool.parallel_map ?jobs
        (fun rng -> minimize_moves ?schedule ~rng m)
        rngs
    in
    Array.fold_left
      (fun acc o ->
        { best = (if o.best_cost < acc.best_cost then o.best else acc.best);
          best_cost = Float.min acc.best_cost o.best_cost;
          accepted = acc.accepted + o.accepted;
          proposed = acc.proposed + o.proposed;
          stages = acc.stages + o.stages })
      outcomes.(0)
      (Array.sub outcomes 1 (restarts - 1))
  end
