(* detector: Table 1, the pulse-detector front-end synthesis.

   Why: DC, transient and noise analysis (engine) and AWE do nearly all
   the work, and layout, symbolic analysis and the batch layer do none, so
   transient/AWE work shows here and router or ISAAC work should not.

   A closed loop, one caller, one design at a time.  The cost of one
   synthesis depends strongly on its anneal seed (each Padé failure buys a
   transient), so a pass runs [units] syntheses on seeded anneal seeds:
   the first through [Pulse_detector.table1], the rest through
   [Pulse_detector.synthesize], which returns the verified design that
   [table1] only prints. *)

module PD = Mixsyn_synth.Pulse_detector
module Det = Mixsyn_circuit.Detector
module Tp = Mixsyn_circuit.Template
module Spec = Mixsyn_synth.Spec
module N = Mixsyn_circuit.Netlist
module Rng = Mixsyn_util.Rng

let units = 4
let moves = 2
let warm_up_sizings = 8
let probe_moves = 3
let probe_scale = 0.05

(* the arguments [Pulse_detector.measure] documents for its own calls, so
   the probe prices the calls the synthesis makes *)
let tran_t_stop = 12e-6
let tran_dt = 6e-9
let awe_order = 8
let noise_freqs = Mixsyn_engine.Ac.log_sweep ~decades_from:2.0 ~decades_to:8.0 ~points_per_decade:8

let table1_metrics =
  [ "peaking_time_s"; "counting_rate_hz"; "enc_electrons"; "gain_v_per_fc"; "swing_v";
    "power_w"; "area_m2" ]

type inputs = {
  seed : int;
  seeds : int list;
  manual : PD.metrics;
}

type unit_out =
  | Table of PD.row list
  | Synth of PD.synthesis

type outcome = unit_out list

let setup ~seed ~jobs:_ =
  let rng = Rng.create seed in
  let seeds = List.init units (fun _ -> 1 + Rng.int rng 1_000_000) in
  (* warm-up: the evaluation the anneal repeats, on in-box sizings drawn
     from a fixed stream so set-up does the same work for every seed, then
     the transient path the final verification takes; the manual column
     is the same in every pass *)
  let template = Det.template () in
  let fixed = Rng.create 1 in
  for _ = 1 to warm_up_sizings do
    ignore (PD.measure (Det.sizing_of_vector (Tp.random_point template fixed)))
  done;
  let manual =
    match PD.measure ~use_transient:true PD.manual with
    | Some m -> m
    | None -> failwith "detector: the manual design has no operating point"
  in
  { seed; seeds; manual }

let pass inp =
  List.mapi
    (fun k seed ->
      if k = 0 then
        Table
          (Trace.with_span ~layer:"synth" "Pulse_detector.table1" (fun () ->
               PD.table1 ~seed ~moves ()))
      else
        Synth
          (Trace.with_span ~layer:"synth" "Pulse_detector.synthesize" (fun () ->
               PD.synthesize ~seed ~moves ())))
    inp.seeds

let has_all_metrics perf = List.for_all (fun m -> List.mem_assoc m perf) table1_metrics

(* checks of one unit, as (name, holds) *)
let unit_checks = function
  | Table rows ->
    [ ("table1.seven-rows", List.length rows = 7);
      ( "table1.every-cell-verified",
        List.for_all
          (fun (r : PD.row) -> r.PD.ours_manual <> "-" && r.PD.ours_synthesis <> "-")
          rows ) ]
  | Synth s ->
    [ ("synthesize.verified-metrics", has_all_metrics s.PD.metrics);
      ("synthesize.meets-agrees", s.PD.meets = Spec.satisfied PD.specs s.PD.metrics) ]

let unit_digest = function
  | Table rows ->
    List.map (fun (r : PD.row) -> r.PD.metric ^ "=" ^ r.PD.ours_synthesis) rows
  | Synth s ->
    List.map (fun (k, v) -> k ^ "=" ^ Util.sig6 v) s.PD.metrics

let verdict inp out =
  let results = List.map unit_checks out in
  let broken =
    List.concat_map (List.filter_map (fun (n, ok) -> if ok then None else Some n)) results
  in
  { Wl.attempted = List.length out;
    failed = List.length (List.filter (List.exists (fun (_, ok) -> not ok)) results);
    broken;
    digest =
      Util.digest_of_strings
        (List.map Util.sig6 (List.map snd inp.manual) @ List.concat_map unit_digest out) }

let syntheses out = List.filter_map (function Synth s -> Some s | Table _ -> None) out

let report inp ~walls:_ outs =
  (* every pass of a run repeats the same inputs, so quality comes from
     the first; the medians run over its verified syntheses *)
  let synths = match outs with [] -> [] | o :: _ -> syntheses o in
  let specs_met (s : PD.synthesis) =
    float_of_int (List.length (List.filter (fun sp -> Spec.satisfied [ sp ] s.PD.metrics) PD.specs))
  in
  let manual_power = Option.value (Spec.lookup inp.manual "power_w") ~default:nan in
  let ratio (s : PD.synthesis) =
    match Spec.lookup s.PD.metrics "power_w" with
    | Some p when p > 0.0 -> manual_power /. p
    | Some _ | None -> nan
  in
  let n = List.length synths in
  [ Wl.metric "specs_met" "count"
      ~note:(Printf.sprintf "median over %d synthesized designs, of %d specs" n (List.length PD.specs))
      (Util.median (List.map specs_met synths));
    Wl.metric "power_ratio" "ratio"
      ~note:(Printf.sprintf "manual over synthesized power, median over %d designs; paper 5.7" n)
      (Util.median (List.map ratio synths)) ]

(* Per-call costs of the functions [measure] is made of.  Most of a
   synthesis's evaluations are the simplex polish around the design it
   returns, so the probe prices the returned designs and the manual one,
   each with seeded small moves around it; a transient is priced where
   the synthesis pays for it, on the points whose AWE model fails. *)
let run_probe inp out =
  let p = Wl.probe () in
  let rng = Rng.create inp.seed in
  let template = Det.template () in
  let centres = PD.manual :: List.map (fun (s : PD.synthesis) -> s.PD.sizing) (syntheses out) in
  let points =
    List.concat_map
      (fun c ->
        let x = Det.vector_of_sizing c in
        c
        :: List.init probe_moves (fun _ ->
               Det.sizing_of_vector (Tp.perturb template rng ~scale:probe_scale x)))
      centres
  in
  List.iter
    (fun s ->
      let nl = Wl.probe_time p "build" (fun () -> Det.build Mixsyn_circuit.Tech.generic_07um s) in
      match Wl.probe_time p "dc" (fun () -> Mixsyn_engine.Dc.solve nl) with
      | exception Mixsyn_engine.Dc.No_convergence _ -> ()
      | op ->
        let out = N.find_net nl "out" in
        let awe_failed =
          match Wl.probe_time p "awe" (fun () -> Mixsyn_awe.Awe.of_circuit nl op ~out ~order:awe_order) with
          | _ -> false
          | exception Failure _ -> true
        in
        let tran () = Mixsyn_engine.Tran.solve nl op ~t_stop:tran_t_stop ~dt:tran_dt in
        ignore (Wl.probe_time p (if awe_failed then "tran.fallback" else "tran.other") tran);
        ignore (Wl.probe_time p "noise" (fun () ->
            Mixsyn_engine.Noise.analyze nl op ~out ~freqs:noise_freqs)))
    points;
  (p, List.length points)

let layers inp out (t : Wl.traced) =
  let p, n = run_probe inp out in
  let c = Wl.counter t in
  let evals = c "detector.cache.misses" and hits = c "detector.cache.hits" in
  let dc_solves = c "dc.solves" in
  let pade_calls = c "awe.pade_calls" in
  (* every Padé failure falls back to a transient, and every design is
     verified by one (the table1 unit verifies the manual design too); AWE
     models rejected for other reasons also fall back but are not counted
     by the program, so this is a lower bound *)
  let tran_calls = c "awe.pade_failures" +. float_of_int (List.length out + 1) in
  (* transients priced on the fallback points when the sample has any *)
  let tran = if Wl.probe_values p "tran.fallback" <> [] then "tran.fallback" else "tran.other" in
  let cost name = Wl.probe_mean p (if name = "tran" then tran else name) in
  let engine =
    (dc_solves *. (cost "build" +. cost "dc")) +. (tran_calls *. cost "tran")
    +. (dc_solves *. cost "noise")
  in
  let awe = pade_calls *. cost "awe" in
  (* the synthesis spans less the probe-scaled engine and AWE time; it
     goes negative when the probe sample overprices the calls *)
  let self =
    Wl.adjust (Wl.layer_self_times t)
      [ ("engine", engine); ("awe", awe); ("synth", -.(engine +. awe)) ]
  in
  let us name = 1e6 *. cost name in
  let dc_us = List.map (fun v -> 1e6 *. v) (Wl.probe_values p "dc") in
  let sample = Printf.sprintf "probe, %d sizings around the designs" n in
  ( [ Wl.metric "engine.dc.solve_us.p50" "us" ~note:sample (Util.median dc_us);
      Wl.metric "engine.dc.solve_us.p99" "us" ~note:sample (Util.quantile 0.99 dc_us);
      Wl.metric "engine.tran.calls" "count"
        ~note:"Padé failures + verifications; lower bound" tran_calls;
      Wl.metric "engine.tran.solve_ms" "ms" ~note:sample (1e3 *. cost "tran");
      Wl.metric "engine.tran.minor_words_per_call" "words" ~note:sample
        (Wl.probe_minor_mean p tran);
      Wl.metric "engine.noise.sweep_us" "us" ~note:sample (us "noise");
      Wl.metric "awe.reduce_us" "us" ~note:sample (us "awe");
      Wl.metric "synth.detector.evals" "count" evals;
      Wl.metric "synth.detector.cache_hit_rate" "ratio"
        ~note:(Printf.sprintf "%.0f hits over %.0f lookups" hits (hits +. evals))
        (Util.ratio hits (hits +. evals)) ],
    self )
