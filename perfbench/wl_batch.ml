(* batch-flow: a manifest of spec-to-verified-layout jobs.

   Why: placement and routing, the static checks, the batch layer, the
   stage cache and job-level pool parallelism do most of the work, while
   the transient engine and symbolic analysis do almost none.  Sizing runs
   as many small anneals, some of them cached, against detector's one long
   anneal, so a cache or parallelism change that helps one and hurts the
   other shows.

   The whole manifest is submitted at t = 0 to [Batch.run ~jobs] with the
   default flow executor: a closed batch with [jobs] workers.  Every
   topology gets the same number of distinct spec points, each repeated,
   so repeats share sizing through the stage cache but redo layout; about
   one job in nine asks for a gain the certified bounds rule out, and the
   prefilter must journal it.

   The spec points are fixed and the seed only shuffles the submission
   order.  A flow's cost is heavy-tailed in its spec point and anneal
   seed (one job can cost five times the median), so seeded spec points
   moved the pass's CPU time by a fifth from seed to seed; the order still
   moves the schedule, the cache's single-flight waits and the makespan. *)

module Batch = Mixsyn_flow.Batch
module Flow = Mixsyn_flow.Flow
module Json = Mixsyn_util.Json
module Tp = Mixsyn_circuit.Template
module Rng = Mixsyn_util.Rng

let points_per_topology = 3
let repeats = 2
let infeasible_jobs = 3
let warm_up_id = "ota-5t-p0-r0"

(* (topology, specs as (metric, lo, hi, log-scale), load range) — spec
   points are drawn inside the region each template reaches *)
let families =
  [ ( "ota-5t",
      [ ("gain_db", 30.0, 40.0, false); ("ugf_hz", 2e6, 8e6, true);
        ("phase_margin_deg", 45.0, 60.0, false) ],
      (5e-13, 2e-12) );
    ( "miller-ota",
      [ ("gain_db", 60.0, 70.0, false); ("ugf_hz", 2e6, 8e6, true);
        ("phase_margin_deg", 45.0, 55.0, false) ],
      (1e-12, 3e-12) );
    ( "folded-cascode",
      [ ("gain_db", 60.0, 70.0, false); ("ugf_hz", 5e6, 2e7, true);
        ("phase_margin_deg", 55.0, 65.0, false) ],
      (1e-12, 3e-12) );
    ("comparator", [ ("gain_db", 45.0, 55.0, false) ], (5e-13, 2e-12)) ]

(* the point at fraction [f] of a range *)
let at f lo hi log_scale =
  if log_scale then exp (log lo +. (f *. (log hi -. log lo))) else lo +. (f *. (hi -. lo))

let job_json ~id ~topology ~specs ~cl =
  Json.Obj
    [ ("id", Json.Str id);
      ( "specs",
        Json.Arr
          (List.map
             (fun (name, v) -> Json.Obj [ ("name", Json.Str name); ("at_least", Json.Num v) ])
             specs) );
      ("objectives", Json.Arr [ Json.Obj [ ("minimize", Json.Str "power_w") ] ]);
      ("context", Json.Obj [ ("cl", Json.Num cl) ]);
      ("topology", Json.Str topology) ]

(* The manifest as JSONL text, so it goes through the public parser.
   Spec points sit at fixed quantiles of each range and every job runs
   the flow's default seed; the seed shuffles the submission order. *)
let manifest_text rng =
  let points =
    List.concat_map
      (fun (topology, ranges, (cl_lo, cl_hi)) ->
        List.init points_per_topology (fun k ->
            let f = (float_of_int k +. 0.5) /. float_of_int points_per_topology in
            let specs = List.map (fun (n, lo, hi, lg) -> (n, at f lo hi lg)) ranges in
            let cl = at f cl_lo cl_hi true in
            List.init repeats (fun r ->
                job_json ~id:(Printf.sprintf "%s-p%d-r%d" topology k r) ~topology ~specs ~cl)))
      families
    |> List.concat
  in
  let infeasible =
    List.mapi
      (fun k (topology, _, _) ->
        job_json ~id:(Printf.sprintf "infeasible-%d" k) ~topology ~specs:[ ("gain_db", 1000.0) ]
          ~cl:1e-12)
      (List.filteri (fun k _ -> k < infeasible_jobs) families)
  in
  let all = Array.of_list (points @ infeasible) in
  Rng.shuffle rng all;
  String.concat "\n" (Array.to_list (Array.map Json.to_string all))

type inputs = {
  jobs : int;
  manifest : Batch.job list;
  infeasible_ids : string list;
  journal : string;
}

(* (id, start, end) of every executor call in the current pass, on the
   monotonic clock; workers append concurrently *)
let job_times : (string * float * float) list ref = ref []
let job_lock = Mutex.create ()
let pass_span = ref 0

let executor job ~seed =
  let t0 = Util.now () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Util.now () in
      Mutex.lock job_lock;
      job_times := (job.Batch.job_id, t0, t1) :: !job_times;
      Mutex.unlock job_lock)
    (fun () ->
      Trace.with_span ~parent:!pass_span ~job:job.Batch.job_id ~layer:"flow"
        "Batch.flow_executor" (fun () -> Batch.flow_executor job ~seed))

let setup ~seed ~jobs =
  let rng = Rng.create seed in
  let manifest =
    match Batch.manifest_of_string (manifest_text rng) with
    | Ok m -> m
    | Error msg -> failwith ("batch-flow manifest: " ^ msg)
  in
  let infeasible_ids =
    List.filter_map
      (fun (j : Batch.job) ->
        if String.starts_with ~prefix:"infeasible" j.Batch.job_id then Some j.Batch.job_id
        else None)
      manifest
  in
  let journal = Filename.concat (Util.out_dir ()) (Printf.sprintf "batch-flow-%d.journal" seed) in
  (* warm-up: one flow, the same whatever the order; every pass starts
     from a cleared stage cache *)
  ignore (Batch.run_job (List.find (fun (j : Batch.job) -> j.Batch.job_id = warm_up_id) manifest));
  { jobs; manifest; infeasible_ids; journal }

type outcome = {
  summary : Batch.summary;
  journal_records : Batch.record list;
  journal_bytes : string;
  times : (string * float * float) list;  (** (id, queue wait, busy) *)
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let pass inp =
  if Sys.file_exists inp.journal then Sys.remove inp.journal;
  job_times := [];
  pass_span := Trace.current_span ();
  let t0 = Util.now () in
  let summary = Batch.run ~jobs:inp.jobs ~executor ~journal:inp.journal inp.manifest in
  let journal_records, _ = Batch.read_journal inp.journal in
  { summary;
    journal_records;
    journal_bytes = read_file inp.journal;
    times = List.rev_map (fun (id, a, b) -> (id, a -. t0, b -. a)) !job_times }

let is_failed (r : Batch.record) =
  match r.Batch.status with
  | Batch.Failed _ | Batch.Timed_out -> true
  | Batch.Completed _ | Batch.Infeasible _ | Batch.Cancelled -> false

let checks inp o =
  let ids = List.map (fun (j : Batch.job) -> j.Batch.job_id) inp.manifest in
  let recorded = List.map (fun (r : Batch.record) -> r.Batch.rec_id) o.journal_records in
  let status id =
    List.find_map
      (fun (r : Batch.record) -> if r.Batch.rec_id = id then Some r.Batch.status else None)
      o.journal_records
  in
  [ ("journal.one-record-per-job", List.sort compare recorded = List.sort compare ids);
    ( "journal.parses",
      List.length o.journal_records = List.length (String.split_on_char '\n' (String.trim o.journal_bytes))
    );
    ( "summary.accounts-every-job",
      let s = o.summary in
      s.Batch.completed + s.Batch.failed + s.Batch.timed_out + s.Batch.prefiltered = s.Batch.total
      && s.Batch.total = List.length ids );
    ( "prefilter.catches-infeasible",
      List.for_all
        (fun id -> match status id with Some (Batch.Infeasible _) -> true | _ -> false)
        inp.infeasible_ids ) ]

let verdict inp o =
  let results = checks inp o in
  let broken = List.filter_map (fun (n, ok) -> if ok then None else Some n) results in
  let failed = List.length (List.filter is_failed o.journal_records) in
  let n = List.length inp.manifest in
  { Wl.attempted = n;
    (* a broken batch-level check fails every job of the pass *)
    failed = (if broken = [] then failed else n);
    broken;
    digest = Digest.to_hex (Digest.string o.journal_bytes) }

let executed inp = List.length inp.manifest - List.length inp.infeasible_ids

let report inp ~walls outs =
  let wall = Util.median walls in
  let busy = List.concat_map (fun o -> List.map (fun (_, _, b) -> b) o.times) outs in
  let tail, pct = Util.tail busy in
  let n_busy = List.length busy in
  let o = List.hd outs in
  let met =
    List.length
      (List.filter
         (fun (r : Batch.record) ->
           match r.Batch.status with
           | Batch.Completed j -> Json.member "meets" j = Some (Json.Bool true)
           | _ -> false)
         o.journal_records)
  in
  let ex = executed inp in
  [ Wl.metric "jobs_per_s" "1/s"
      ~note:(Printf.sprintf "%d jobs (%d executed, %d prefiltered) over median wall_s"
               (List.length inp.manifest) ex (List.length inp.infeasible_ids))
      (float_of_int (List.length inp.manifest) /. wall);
    Wl.metric "job_p50_s" "s" ~note:(Printf.sprintf "executor time, n=%d" n_busy) (Util.median busy);
    Wl.metric "job_tail_s" "s"
      ~note:
        (let id, _, b =
           List.fold_left (fun ((_, _, b0) as m) ((_, _, b) as x) -> if b > b0 then x else m)
             ("", 0.0, 0.0) (List.concat_map (fun o -> o.times) outs)
         in
         Printf.sprintf "p%.1f of n=%d executor times; slowest %s %.2f s" pct n_busy id b)
      tail;
    Wl.metric "met_frac" "ratio"
      ~note:(Printf.sprintf "%d of %d executed jobs meet every spec post-layout" met ex)
      (Util.ratio (float_of_int met) (float_of_int ex)) ]

(* failed jobs by the first rule id of their diagnostics *)
let failed_by_rule o =
  let tally = Hashtbl.create 4 in
  List.iter
    (fun (r : Batch.record) ->
      match r.Batch.status with
      | Batch.Failed f ->
        let rule =
          match f.Batch.diagnostics with
          | d :: _ -> List.hd (String.split_on_char ' ' d)
          | [] -> f.Batch.error
        in
        Hashtbl.replace tally rule (1 + Option.value (Hashtbl.find_opt tally rule) ~default:0)
      | _ -> ())
    o.journal_records;
  List.sort compare (List.of_seq (Hashtbl.to_seq tally))

(* Per-call costs, on seeded sizings of every topology, of the calls the
   sizing evaluator makes (DC solve, order-4 AWE as [Evaluate.awe_hybrid]
   runs them) and of the AC sweep extraction runs; and of the static
   prefilter over the manifest. *)
let run_probe inp =
  let p = Wl.probe () in
  let rng = Rng.create 7 in
  let tech = Mixsyn_circuit.Tech.generic_07um in
  List.iter
    (fun (t : Tp.t) ->
      for _ = 1 to 4 do
        let nl = t.Tp.build tech (Tp.random_point t rng) in
        match Wl.probe_time p "dc" (fun () -> Mixsyn_engine.Dc.solve ~tech nl) with
        | exception Mixsyn_engine.Dc.No_convergence _ -> ()
        | op ->
          let out = Mixsyn_circuit.Netlist.find_net nl "out" in
          (try ignore (Wl.probe_time p "awe" (fun () -> Mixsyn_awe.Awe.of_circuit ~tech nl op ~out ~order:4))
           with Failure _ | Mixsyn_util.Matrix.Real.Singular _ -> ());
          ignore (Wl.probe_time p "ac" (fun () ->
              Mixsyn_engine.Ac.solve ~tech nl op ~freqs:Mixsyn_synth.Evaluate.sweep_freqs))
      done)
    Mixsyn_circuit.Topology.all;
  List.iter
    (fun j -> ignore (Wl.probe_time p "prefilter" (fun () -> Batch.prefilter_job j)))
    inp.manifest;
  p

let layers inp o (t : Wl.traced) =
  let p = run_probe inp in
  let cost = Wl.probe_mean p in
  let c = Wl.counter t in
  let under = Wl.spans_prefixed t ~root:"batch.job" in
  let sizing = under "flow.sizing-pass" and layout = under "flow.layout-pass" in
  let extraction = under "flow.extraction-pass" in
  let gates = under "flow.check-" in
  let checks = gates +. under "flow.feasibility" +. under "flow.box-contraction" in
  let size_s = Wl.span_under t ~root:"batch.job" "sizing.size" in
  let evals = c "sizing.evaluator_invocations" in
  let prefilter = float_of_int (List.length inp.manifest) *. cost "prefilter" in
  let w = float_of_int inp.jobs in
  let busy = List.fold_left (fun acc (_, _, b) -> acc +. b) 0.0 o.times in
  (* the stage split of the program's own spans under batch.job, in
     worker-seconds shared out over the [jobs] workers; the sizing stage
     keeps the DC and AWE evaluations it makes *)
  let self =
    List.map
      (fun (l, v) -> (l, v /. w))
      [ ("synth", sizing);
        ("engine", extraction);
        ("layout", layout);
        ("check", checks +. prefilter);
        ("flow", busy -. sizing -. layout -. extraction -. checks) ]
  in
  let waits = List.map (fun (_, wait, _) -> wait) o.times in
  let hits, misses = (c "flow.stage_cache.hits", c "flow.stage_cache.misses") in
  let rules = failed_by_rule o in
  let dc_us = List.map (fun v -> 1e6 *. v) (Wl.probe_values p "dc") in
  let sample = Printf.sprintf "probe, %d seeded sizings" (List.length dc_us) in
  ( [ Wl.metric "engine.dc.solve_us.p50" "us" ~note:sample (Util.median dc_us);
      Wl.metric "engine.dc.solve_us.p99" "us" ~note:sample (Util.quantile 0.99 dc_us);
      Wl.metric "engine.ac.sweep_us" "us" ~note:sample (1e6 *. cost "ac");
      Wl.metric "awe.reduce_us" "us" ~note:sample (1e6 *. cost "awe");
      Wl.metric "synth.sizing.size_s" "s" size_s;
      Wl.metric "synth.sizing.evals_per_s" "1/s"
        ~note:(Printf.sprintf "%.0f evaluations over sizing.size seconds" evals)
        (Util.ratio evals size_s);
      Wl.metric "check.prefilter_us" "us"
        ~note:(Printf.sprintf "per job, %d jobs" (List.length inp.manifest))
        (1e6 *. cost "prefilter");
      Wl.metric "check.gates_s" "s" ~note:"ERC + DRC + audit" gates;
      Wl.metric "check.failed_jobs" "count"
        ~note:
          (match rules with
           | [] -> "none"
           | _ -> String.concat ", " (List.map (fun (r, n) -> Printf.sprintf "%s=%d" r n) rules))
        (float_of_int (List.fold_left (fun acc (_, n) -> acc + n) 0 rules));
      Wl.metric "flow.batch.job_busy_s" "s"
        ~note:(Printf.sprintf "summed over %d executed jobs" (List.length o.times)) busy;
      Wl.metric "flow.batch.queue_wait_s" "s" ~note:"mean per executed job, from submission at t=0"
        (Util.mean waits);
      Wl.metric "flow.batch.worker_busy_frac" "ratio"
        ~note:(Printf.sprintf "busy over %d workers x wall" inp.jobs)
        (Util.ratio busy (w *. t.Wl.wall));
      Wl.metric "flow.stage_cache.hit_rate" "ratio"
        ~note:(Printf.sprintf "%.0f hits over %.0f lookups" hits (hits +. misses))
        (Util.ratio hits (hits +. misses)) ],
    self )
