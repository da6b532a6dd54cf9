(* Timing contracts, run by `dune build @timing`.  They are not part of
   `dune runtest`, whose test executables run concurrently and spoil each
   other's timings.  Every timing is the median of 3 runs.

   - parallel: the better of the anneal multi-start and corner-sweep
     speedups at jobs 4 over jobs 1 is at least 2.0, with results
     bit-identical across runs and job counts;
   - batch: a 48-job stand-in manifest runs at jobs 4 at least as fast as
     at jobs 1, with byte-identical journals;
   - serve: the read path of a 4-worker server answers at least 200
     requests/s with a p99 latency of at most 50 ms.

   Scaling gates assume the host has the cores to scale onto: with fewer
   than 4 cores they degrade, with a warning on stderr, to the no-slowdown
   floor 0.9.  Latency gates never degrade: a 1-core host still answers
   loopback status reads quickly.  Exits 1 if any gate fails. *)

module Batch = Mixsyn_flow.Batch
module Serve = Mixsyn_flow.Serve
module Http = Mixsyn_util.Http
module Json = Mixsyn_util.Json
module Top = Mixsyn_circuit.Topology
module Tp = Mixsyn_circuit.Template
module Spec = Mixsyn_synth.Spec

let tech = Mixsyn_circuit.Tech.generic_07um
let jobs = 4
let cores = Mixsyn_util.Pool.available_cores ()
let failures = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") msg;
      if not ok then incr failures)
    fmt

(* a speedup must reach [want], or the no-slowdown floor on a host with
   fewer than [jobs] cores *)
let scaling_gate what ~want got =
  let want =
    if cores >= jobs then want
    else begin
      let floor = Float.min want 0.9 in
      Printf.eprintf
        "WARNING: host has %d core(s), the gate asks for %d workers; %s target degraded from \
         %.2fx to the no-slowdown floor %.2fx\n%!"
        cores jobs what want floor;
      floor
    end
  in
  check (got >= want) "%s %.2fx (need >= %.2fx)" what got want

let median3 xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(1)

(* median wall time of 3 runs of [f], its first result, and whether every
   run returned that result *)
let timed f =
  let runs =
    List.init 3 (fun _ ->
        let t0 = Unix.gettimeofday () in
        let r = f () in
        (r, Unix.gettimeofday () -. t0))
  in
  let r0 = fst (List.hd runs) in
  (r0, median3 (List.map snd runs), List.for_all (fun (r, _) -> r = r0) runs)

let speedup name f =
  let seq, seq_s, seq_same = timed (fun () -> f 1) in
  let par, par_s, par_same = timed (fun () -> f jobs) in
  check (seq_same && par_same && seq = par) "%s: identical across runs and job counts" name;
  Printf.printf "%-20s jobs 1 %7.3fs  jobs %d %7.3fs  %5.2fx\n%!" name seq_s jobs par_s
    (seq_s /. par_s);
  seq_s /. par_s

let parallel () =
  let nl =
    Top.miller_ota.Tp.build tech
      [| 60e-6; 20e-6; 30e-6; 60e-6; 45e-6; 1e-6; 50e-6; 3e-12; 5e-12 |]
  in
  let items, _, sym = Mixsyn_layout.Cell_flow.items_of_netlist nl in
  let anneal =
    speedup "anneal-multistart" (fun j ->
        Mixsyn_layout.Placer.place ~seed:23 ~restarts:4 ~jobs:j items sym)
  in
  (* 17 corner vertices, each a full simulation of the midpoint sizing *)
  let specs =
    [ Spec.spec "gain_db" (Spec.At_least 70.0);
      Spec.spec "ugf_hz" (Spec.At_least 10e6);
      Spec.spec "phase_margin_deg" (Spec.At_least 60.0) ]
  in
  let x = Tp.midpoint Top.miller_ota in
  let violation corner =
    let cornered = Mixsyn_circuit.Tech.apply_corner tech corner in
    match Mixsyn_synth.Evaluate.full_simulation ~tech:cornered Top.miller_ota x with
    | None -> 10.0
    | Some perf -> Spec.total_violation specs perf
  in
  let corners =
    speedup "corner-sweep" (fun j ->
        Mixsyn_opt.Corner_search.worst_corner ~refine:false ~jobs:j ~violation ())
  in
  scaling_gate "parallel speedup" ~want:2.0 (Float.max anneal corners)

(* a deterministic stand-in for a full flow: a burst of DC solves on a
   seed-perturbed 5T OTA *)
let stand_in (_ : Batch.job) ~seed =
  let params =
    Array.mapi
      (fun i v -> v *. (1.0 +. (0.002 *. float_of_int (((seed * 31) + i) mod 5))))
      (Tp.midpoint Top.ota_5t)
  in
  let nl = Top.ota_5t.Tp.build tech params in
  let power = ref 0.0 in
  for _ = 1 to 25 do
    power := Mixsyn_engine.Dc.power nl (Mixsyn_engine.Dc.solve ~tech nl)
  done;
  Json.Obj [ ("power_w", Json.Num !power) ]

let manifest_lines prefix n =
  List.init n (fun i ->
      Printf.sprintf
        "{\"id\": \"%s-%02d\", \"seed\": %d, \"specs\": [{\"name\": \"gain_db\", \"at_least\": %s}], \"topology\": \"ota-5t\"}"
        prefix i (i + 1)
        (if i mod 8 = 3 then "1000.0" else "40.0"))

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let batch () =
  let manifest =
    match Batch.manifest_of_string (String.concat "\n" (manifest_lines "job" 48)) with
    | Ok jobs -> jobs
    | Error msg -> failwith msg
  in
  let run j =
    let journal = Filename.temp_file "msyn_timing" ".journal" in
    Sys.remove journal;
    ignore (Batch.run ~jobs:j ~executor:stand_in ~journal manifest);
    let bytes = read_file journal in
    Sys.remove journal;
    bytes
  in
  scaling_gate "batch throughput" ~want:1.0 (speedup "batch (48 jobs)" run)

let serve () =
  let n = 24 in
  let journal = Filename.temp_file "msyn_timing_serve" ".journal" in
  Sys.remove journal;
  let cfg =
    { (Serve.default_config ~journal) with Serve.workers = jobs; queue_capacity = 256 }
  in
  let slot = Atomic.make None in
  let server =
    Domain.spawn (fun () ->
        Serve.run ~executor:stand_in ~on_ready:(fun h -> Atomic.set slot (Some h)) cfg)
  in
  let rec handle () =
    match Atomic.get slot with
    | Some h -> h
    | None ->
      Unix.sleepf 0.005;
      handle ()
  in
  let h = handle () in
  let call meth path body =
    match
      Http.request ?body ~timeout_s:30.0 ~host:"127.0.0.1" ~port:(Serve.port h) ~meth ~path ()
    with
    | Ok (_, _, body) -> body
    | Error msg -> failwith (Printf.sprintf "%s %s: %s" meth path msg)
  in
  List.iter (fun line -> ignore (call "POST" "/jobs" (Some line))) (manifest_lines "srv" n);
  let rec poll path =
    let state j = Option.bind (Json.member "state" j) Json.to_str in
    match Result.map state (Json.parse (call "GET" path None)) with
    | Ok (Some ("queued" | "running")) ->
      Unix.sleepf 0.01;
      poll path
    | Ok _ | Error _ -> ()
  in
  for i = 0 to n - 1 do
    poll (Printf.sprintf "/jobs/srv-%02d" i)
  done;
  (* the read path: one-shot status and health requests, each timed *)
  let round () =
    let n_requests = 300 in
    let latencies =
      Array.init n_requests (fun i ->
          let path =
            if i mod 3 = 0 then "/healthz" else Printf.sprintf "/jobs/srv-%02d" (i mod n)
          in
          let t0 = Unix.gettimeofday () in
          ignore (call "GET" path None);
          Unix.gettimeofday () -. t0)
    in
    let rps = float_of_int n_requests /. Array.fold_left ( +. ) 0.0 latencies in
    Array.sort compare latencies;
    (rps, latencies.(int_of_float ((0.99 *. float_of_int (n_requests - 1)) +. 0.5)) *. 1e3)
  in
  let rounds = List.init 3 (fun _ -> round ()) in
  Serve.drain h;
  ignore (Domain.join server);
  Sys.remove journal;
  let rps = median3 (List.map fst rounds) and p99_ms = median3 (List.map snd rounds) in
  check (rps >= 200.0) "serve read path %.0f req/s (need >= 200)" rps;
  check (p99_ms <= 50.0) "serve read path p99 %.2f ms (need <= 50)" p99_ms

let () =
  Printf.printf "host cores %d, gates at jobs %d\n%!" cores jobs;
  parallel ();
  batch ();
  serve ();
  if !failures > 0 then exit 1
