(* The mixsyn benchmark: one workload per run, end-to-end metrics with
   tracing off, or per-layer metrics from a traced pass.

     bench.exe --workload detector|isaac|batch-flow --seed N --seconds S --trace 0|1
               [--nproc P]

   A run sets the workload up several times (input generation from the
   seed, pool spawn, warm-up) and reports the median CPU time as setup_s,
   then repeats timed passes over the same inputs until [--seconds] have
   passed.  The JSON line carries CPU seconds (cpu_s, setup_s) and peak
   RSS; wall times are printed beside them but not gated, because steal
   on a shared host moves them by tens of percent between runs.  Every pass starts from a cleared stage cache and a reset
   telemetry registry.  With [--trace 1] it runs one untraced pass and one
   traced pass of the same inputs instead, and reports the layers.

   Stdout carries a readable report; its last line is one JSON object
   {correct, attempted, failed, metrics}.  The metrics, the telemetry
   counters of every pass and the traced pass's spans land in
   perfbench/out/.

   The benchmark was tuned on seeds below 100; seed 4242 is held out, so a
   claimed gain can be checked on inputs no tuning run saw. *)

module Telemetry = Mixsyn_util.Telemetry
module Json = Mixsyn_util.Json
module Pool = Mixsyn_util.Pool

let setup_repeats = 3

(* The per-layer metrics every traced run prints, in print order; the
   list BENCHMARK.json declares. *)
let layer_names = [ "engine"; "awe"; "symbolic"; "synth"; "layout"; "check"; "flow" ]

let per_layer =
  [ ("engine.dc.solve_us.p50", "us"); ("engine.dc.solve_us.p99", "us");
    ("engine.dc.newton_iters_per_solve", "count"); ("engine.tran.calls", "count");
    ("engine.tran.solve_ms", "ms"); ("engine.tran.minor_words_per_call", "words");
    ("engine.noise.sweep_us", "us"); ("engine.ac.sweep_us", "us"); ("awe.reduce_us", "us");
    ("awe.fallback_rate", "ratio"); ("awe.order_fallbacks_per_call", "count");
    ("symbolic.transfer_s", "s"); ("symbolic.terms", "count"); ("symbolic.valuation_us", "us");
    ("symbolic.prune_s", "s"); ("symbolic.magnitude_error_s", "s");
    ("symbolic.minor_mwords", "Mwords"); ("synth.detector.evals", "count");
    ("synth.detector.cache_hit_rate", "ratio"); ("opt.anneal.proposed", "count");
    ("synth.sizing.size_s", "s"); ("synth.sizing.evals_per_s", "1/s"); ("layout.place_s", "s");
    ("layout.route_s", "s"); ("layout.router.expansions", "count");
    ("layout.router.ripup_passes", "count"); ("layout.router.failed_nets", "count");
    ("layout.placement_attempts", "count"); ("check.prefilter_us", "us"); ("check.gates_s", "s");
    ("check.failed_jobs", "count"); ("flow.batch.job_busy_s", "s");
    ("flow.batch.queue_wait_s", "s"); ("flow.batch.worker_busy_frac", "ratio");
    ("flow.stage_cache.hit_rate", "ratio"); ("flow.redesigns", "count");
    ("util.pool.parallel_runs", "count"); ("util.pool.grain_fallback_rate", "ratio");
    ("util.pool.busy_s", "s"); ("util.cpu_s", "s"); ("util.gc.minor_mwords", "Mwords");
    ("util.gc.major_collections", "count") ]
  @ List.map (fun l -> (l ^ ".self_s", "s")) layer_names
  @ [ ("unattributed_s", "s"); ("trace.wall_s", "s"); ("trace.overhead_s", "s") ]

let workloads : (string * (module Wl.S)) list =
  [ ("detector", (module Wl_detector)); ("isaac", (module Wl_isaac));
    ("batch-flow", (module Wl_batch)) ]

type host = {
  nproc : int;
  jobs : int;
  env : string list;
}

let host_json h =
  Json.Obj
    [ ("nproc", Json.Num (float_of_int h.nproc));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("jobs", Json.Num (float_of_int h.jobs));
      ("env", Json.Arr (List.map (fun s -> Json.Str s) h.env)) ]

let print_metric (m : Wl.metric) =
  Printf.printf "  %-36s %14.6g %-7s %s\n" m.Wl.name m.Wl.value m.Wl.unit_
    (if m.Wl.note = "" then "" else "(" ^ m.Wl.note ^ ")")

let metrics_json ms =
  Json.Obj
    (List.map
       (fun (m : Wl.metric) ->
         (m.Wl.name, Json.Obj [ ("value", Json.Num m.Wl.value); ("unit", Json.Str m.Wl.unit_) ]))
       ms)

(* Per-layer metrics the program's own counters and spans give for any
   workload; a workload's own measurement of the same name wins. *)
let counter_layers (t : Wl.traced) =
  let c = Wl.counter t in
  let pool_busy =
    List.fold_left
      (fun acc (name, v) ->
        match String.split_on_char '.' name with
        | [ "pool"; "domain"; _; "busy_us" ] -> acc +. (float_of_int v *. 1e-6)
        | _ -> acc)
      0.0 t.Wl.counters
  in
  let fallbacks = c "pool.grain_fallbacks" +. c "pool.grain_inefficient" in
  let pool_calls = fallbacks +. c "pool.parallel_runs" in
  let under = Wl.span_under t ~root:"batch.job" in
  [ Wl.metric "engine.dc.newton_iters_per_solve" "count"
      ~note:(Printf.sprintf "over %.0f solves" (c "dc.solves"))
      (Util.ratio (c "dc.newton_iterations") (c "dc.solves"));
    Wl.metric "awe.fallback_rate" "ratio"
      ~note:(Printf.sprintf "%.0f Padé failures over %.0f calls" (c "awe.pade_failures")
               (c "awe.pade_calls"))
      (Util.ratio (c "awe.pade_failures") (c "awe.pade_calls"));
    Wl.metric "awe.order_fallbacks_per_call" "count"
      ~note:(Printf.sprintf "over %.0f calls" (c "awe.pade_calls"))
      (Util.ratio (c "awe.order_fallbacks") (c "awe.pade_calls"));
    Wl.metric "opt.anneal.proposed" "count" (c "anneal.proposed");
    Wl.metric "layout.place_s" "s" ~note:"under batch.job" (under "layout.place");
    Wl.metric "layout.route_s" "s" ~note:"under batch.job" (under "layout.route");
    Wl.metric "layout.router.expansions" "count" (c "router.grid_expansions");
    Wl.metric "layout.router.ripup_passes" "count" (c "router.ripup_passes");
    Wl.metric "layout.router.failed_nets" "count" (c "router.failed_nets");
    Wl.metric "layout.placement_attempts" "count" (c "layout.placement_attempts");
    Wl.metric "flow.redesigns" "count" (c "flow.redesigns");
    Wl.metric "util.pool.parallel_runs" "count" (c "pool.parallel_runs");
    Wl.metric "util.pool.grain_fallback_rate" "ratio"
      ~note:(Printf.sprintf "%.0f sequential fallbacks over %.0f pool calls" fallbacks pool_calls)
      (Util.ratio fallbacks pool_calls);
    Wl.metric "util.pool.busy_s" "s" ~note:"wall time inside pool regions, all domains" pool_busy;
    Wl.metric "util.cpu_s" "s" ~note:"process user+sys, all domains" t.Wl.cpu;
    Wl.metric "util.gc.minor_mwords" "Mwords" (1e-6 *. t.Wl.minor_words);
    Wl.metric "util.gc.major_collections" "count" (float_of_int t.Wl.major_collections) ]

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("bench: " ^ s); exit 2) fmt

let run (module W : Wl.S) ~name ~seed ~seconds ~trace ~host =
  Printf.printf "host: nproc=%d ocaml=%s jobs=%d env=[%s]\n" host.nproc Sys.ocaml_version
    host.jobs (String.concat " " host.env);
  Printf.printf "workload %s, seed %d, %s\n%!" name seed
    (if trace then "traced run" else Printf.sprintf "%g s of timed passes" seconds);
  (* set-up, several times: a fresh pool each time, inputs from the seed,
     warm-up; the last set-up's inputs are the ones timed *)
  let setups =
    List.init setup_repeats (fun _ ->
        Pool.shutdown ();
        let c0 = Util.cpu () in
        let inputs, wall =
          Util.timed (fun () ->
              ignore (Pool.parallel_init ~jobs:host.jobs host.jobs Fun.id);
              W.setup ~seed ~jobs:host.jobs)
        in
        (inputs, wall, Util.cpu () -. c0))
  in
  let inputs, _, _ = List.nth setups (setup_repeats - 1) in
  let one_pass () =
    Mixsyn_flow.Flow.clear_stage_cache ();
    Telemetry.reset ();
    let c0 = Util.cpu () and g0 = Gc.quick_stat () in
    let out, wall = Util.timed (fun () -> W.pass inputs) in
    let g1 = Gc.quick_stat () in
    (out, wall, Util.cpu () -. c0, g1.Gc.minor_words -. g0.Gc.minor_words,
     g1.Gc.major_collections - g0.Gc.major_collections)
  in
  let passes = ref [] and snapshots = ref [] in
  let record (o, wall, cpu, _, _) =
    passes := (o, wall, cpu) :: !passes;
    snapshots := Json.Obj (List.map (fun (k, v) -> (k, Json.Num (float_of_int v)))
                             (Telemetry.counters_alist ())) :: !snapshots
  in
  let traced_result =
    if not trace then begin
      let t0 = Util.now () in
      let rec loop () =
        record (one_pass ());
        if Util.now () -. t0 < seconds then loop ()
      in
      loop ();
      None
    end
    else begin
      let ((_, untraced_wall, _, _, _) as untraced) = one_pass () in
      record untraced;
      Atomic.set Trace.enabled true;
      Atomic.set Trace.pass_id 1;
      let threads0 = Util.thread_cpu () in
      let ((o, wall, cpu, minor, major) as traced) =
        Trace.with_span ~layer:"bench" "pass" one_pass
      in
      Atomic.set Trace.enabled false;
      let threads1 = Util.thread_cpu () in
      let t =
        { Wl.wall; cpu; counters = Telemetry.counters_alist ();
          tspans = Telemetry.spans (); bench_spans = Trace.spans (); minor_words = minor;
          major_collections = major }
      in
      record traced;
      Some (o, t, untraced_wall, threads0, threads1)
    end
  in
  let passes = List.rev !passes in
  let verdicts = List.map (fun (o, _, _) -> W.verdict inputs o) passes in
  let digests = List.sort_uniq compare (List.map (fun v -> v.Wl.digest) verdicts) in
  let broken =
    List.sort_uniq compare (List.concat_map (fun v -> v.Wl.broken) verdicts)
    @ if List.length digests > 1 then [ "digest.same-every-pass" ] else []
  in
  let attempted = List.fold_left (fun acc v -> acc + v.Wl.attempted) 0 verdicts in
  let failed = List.fold_left (fun acc v -> acc + v.Wl.failed) 0 verdicts in
  let walls = List.map (fun (_, w, _) -> w) passes in
  let cpus = List.map (fun (_, _, c) -> c) passes in
  let quartiles xs = Printf.sprintf "q1 %.4g, q3 %.4g" (Util.quantile 0.25 xs) (Util.quantile 0.75 xs) in
  let wall_s =
    Wl.metric "wall_s" "s"
      ~note:(Printf.sprintf "median of %d passes; %s" (List.length walls) (quartiles walls))
      (Util.median walls)
  in
  let setup_wall_s =
    Wl.metric "setup_wall_s" "s" ~note:(Printf.sprintf "median of %d set-ups" setup_repeats)
      (Util.median (List.map (fun (_, w, _) -> w) setups))
  in
  (* the gated metrics are CPU seconds: wall time on a shared VM carries
     the hypervisor's steal, which on a 2-vCPU guest moved wall/CPU of
     identical passes between 1.07 and 1.40 *)
  let e2e =
    [ Wl.metric "cpu_s" "s"
        ~note:(Printf.sprintf "user+sys, all domains; median of %d passes; %s" (List.length cpus)
                 (quartiles cpus))
        (Util.median cpus);
      Wl.metric "setup_s" "s"
        ~note:(Printf.sprintf "user+sys of one set-up, median of %d" setup_repeats)
        (Util.median (List.map (fun (_, _, c) -> c) setups));
      Wl.metric "peak_rss_mb" "MB" (Util.peak_rss_mb ()) ]
  in
  let failed_frac =
    Wl.metric "failed_frac" "ratio"
      ~note:(Printf.sprintf "%d of %d operations" failed attempted)
      (Util.ratio (float_of_int failed) (float_of_int attempted))
  in
  print_endline "end-to-end:";
  List.iter print_metric
    ((wall_s :: e2e) @ [ setup_wall_s; failed_frac ]
     @ W.report inputs ~walls (List.map (fun (o, _, _) -> o) passes));
  Printf.printf "correct: %s%s\ndigest: %s\n"
    (if broken = [] then "yes" else "NO, broken: ")
    (String.concat ", " broken) (String.concat " " digests);
  let json_metrics, spans_json =
    match traced_result with
    | None -> (e2e, [])
    | Some (o, t, untraced_wall, threads0, threads1) ->
      let own, self = W.layers inputs o t in
      let self_of l = Option.value (List.assoc_opt l self) ~default:0.0 in
      let attributed = List.fold_left (fun acc l -> acc +. self_of l) 0.0 layer_names in
      let extra =
        List.map (fun l -> Wl.metric (l ^ ".self_s") "s" (self_of l)) layer_names
        @ [ Wl.metric "unattributed_s" "s" ~note:"traced wall minus layer self times"
              (t.Wl.wall -. attributed);
            Wl.metric "trace.wall_s" "s" t.Wl.wall;
            Wl.metric "trace.overhead_s" "s" ~note:"traced minus untraced wall_s"
              (t.Wl.wall -. untraced_wall) ]
      in
      (* first match wins: the workload's own measurement, then the
         counters, then the attribution *)
      let all = own @ counter_layers t @ extra in
      let find (n, unit_) =
        match List.find_opt (fun (m : Wl.metric) -> m.Wl.name = n) all with
        | Some m when m.Wl.unit_ = unit_ -> m
        | Some m -> failwith (Printf.sprintf "%s measured in %s, declared in %s" n m.Wl.unit_ unit_)
        | None -> Wl.metric n unit_ ~note:"not exercised by this workload" 0.0
      in
      let ms = List.map find per_layer in
      print_endline "per-layer (traced pass):";
      List.iter print_metric ms;
      (* CPU per thread (one per domain) beside the pool's per-domain busy
         counters, which measure wall time inside parallel regions *)
      print_endline "per-thread CPU over the traced pass:";
      List.iter
        (fun (tid, c1) ->
          let c0 = Option.value (List.assoc_opt tid threads0) ~default:0.0 in
          if c1 -. c0 > 0.0 then Printf.printf "  thread %d: %.2f s CPU\n" tid (c1 -. c0))
        threads1;
      List.iter
        (fun (name, us) ->
          if String.starts_with ~prefix:"pool.domain." name then
            Printf.printf "  %s: %.2f s wall\n" name (float_of_int us *. 1e-6))
        t.Wl.counters;
      (ms, List.map Trace.to_json (Trace.spans ()))
  in
  let out =
    Filename.concat (Util.out_dir ())
      (Printf.sprintf "%s-seed%d-trace%d.json" name seed (if trace then 1 else 0))
  in
  let oc = open_out out in
  output_string oc
    (Json.to_string
       (Json.Obj
          [ ("workload", Json.Str name); ("seed", Json.Num (float_of_int seed));
            ("host", host_json host); ("metrics", metrics_json json_metrics);
            ("counters_per_pass", Json.Arr (List.rev !snapshots)); ("spans", Json.Arr spans_json) ]));
  close_out oc;
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (broken = []));
            ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed));
            ("metrics", metrics_json json_metrics) ]))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let nproc = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME detector, isaac or batch-flow");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S timed-pass budget");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or a traced run");
      ("--nproc", Arg.Set_int nproc, "P usable cores (default: the runtime's count)") ]
    (fun a -> fail "unexpected argument %s" a)
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None -> fail "unknown workload %S" !workload
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  let nproc = if !nproc > 0 then !nproc else Domain.recommended_domain_count () in
  (* worker domains: MIXSYN_JOBS when set, else one per usable core *)
  let jobs =
    match Sys.getenv_opt "MIXSYN_JOBS" with
    | None -> nproc
    | Some s -> (match Pool.jobs_of_string s with Ok n -> n | Error e -> fail "MIXSYN_JOBS: %s" e)
  in
  if jobs > nproc then fail "%d jobs exceed the %d usable cores" jobs nproc;
  Pool.set_default_jobs jobs;
  let host = { nproc; jobs; env = Util.scheduler_env () } in
  try run w ~name:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~host
  with e ->
    prerr_endline ("bench: " ^ Printexc.to_string e);
    exit 1
