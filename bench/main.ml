(* Paper results: regenerates every table and figure of the paper's
   evaluation, plus the quantified claims in its text, on stdout.  Each
   experiment's telemetry report (counters and spans) goes to stderr.

     dune exec bench/main.exe            # all experiments
     dune exec bench/main.exe -- table1  # one experiment

   The printed tables of the deterministic experiments are pinned under
   bench/expected/ (see bench/dune); timing lives in perfbench/.

   Experiment ids follow DESIGN.md: E1 = Table 1, E2 = Fig. 1, E3 = Fig. 2,
   E4 = Fig. 3, E5 = corners (4X-10X claim), E6 = stack extraction,
   E7 = the 6x power claim (inside E1), E8 = WREN/WRIGHT noise management,
   E9 = ISAAC symbolic simplification, E10 = parasitic-bounded routing. *)

module Spec = Mixsyn_synth.Spec
module Sizing = Mixsyn_synth.Sizing
module Top = Mixsyn_circuit.Topology
module Tp = Mixsyn_circuit.Template
module N = Mixsyn_circuit.Netlist

let tech = Mixsyn_circuit.Tech.generic_07um

let banner title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let section fmt = Printf.ksprintf (fun s -> Printf.printf "\n-- %s --\n" s) fmt

(* ---------------------------------------------------------------------- *)
(* E1 + E7: Table 1 - pulse detector synthesis                             *)
(* ---------------------------------------------------------------------- *)

let run_table1 () =
  banner "E1/E7: Table 1 - pulse detector front-end synthesis";
  Printf.printf
    "paper: AMGIE-style synthesis of a CSA + 4-stage shaper meets every\nspec and cuts power ~6x against the expert manual design.\n\n";
  let rows = Mixsyn_synth.Pulse_detector.table1 ~seed:11 ~moves:40 () in
  Format.printf "%a@." Mixsyn_synth.Pulse_detector.pp_rows rows;
  let get metric select =
    List.find_map
      (fun (r : Mixsyn_synth.Pulse_detector.row) ->
        if r.Mixsyn_synth.Pulse_detector.metric = metric then Some (select r) else None)
      rows
  in
  match
    ( get "power_w" (fun r -> r.Mixsyn_synth.Pulse_detector.ours_manual),
      get "power_w" (fun r -> r.Mixsyn_synth.Pulse_detector.ours_synthesis) )
  with
  | Some m, Some s ->
    let parse v = Scanf.sscanf v "%f" (fun x -> x) in
    (try
       Printf.printf "E7 power-reduction shape: paper 40/7 = 5.7x, ours %.1fx\n"
         (parse m /. parse s)
     with Scanf.Scan_failure _ | Failure _ -> ())
  | _ -> ()

(* ---------------------------------------------------------------------- *)
(* E2: Fig. 1 - knowledge-based vs optimization-based synthesis            *)
(* ---------------------------------------------------------------------- *)

let run_fig1 () =
  banner "E2: Fig. 1 - the two frontend strategies on one specification";
  Printf.printf
    "paper: design plans execute fast but exist only where knowledge was\nencoded; optimization is open to new topologies at simulation cost.\n\n";
  let specs =
    [ Spec.spec "gain_db" (Spec.At_least 70.0);
      Spec.spec "ugf_hz" (Spec.At_least 10e6);
      Spec.spec "phase_margin_deg" (Spec.At_least 60.0) ]
  in
  let objectives = [ Spec.minimize "power_w" ] in
  let context = [ ("cl", 5e-12); ("load_cap_f", 5e-12) ] in
  Printf.printf "%-24s %10s %8s %7s %10s %9s\n" "strategy" "time" "evals" "specs" "power"
    "gain";
  List.iter
    (fun (label, strategy, guardband) ->
      let r =
        Sizing.size ~seed:5 ~context ~guardband strategy Top.miller_ota ~specs ~objectives
      in
      Printf.printf "%-24s %9.3fs %8d %7s %10s %8.1fdB\n" label r.Sizing.elapsed_s
        r.Sizing.evaluations
        (if r.Sizing.meets_specs then "MET" else "FAIL")
        (Mixsyn_util.Units.format
           (Option.value (Spec.lookup r.Sizing.performance "power_w") ~default:0.0)
           "W")
        (Option.value (Spec.lookup r.Sizing.performance "gain_db") ~default:0.0))
    [ ("design-plan (Fig. 1a)", Sizing.Design_plan Mixsyn_synth.Design_plan.plan_miller, 1.0);
      ("equation-annealing", Sizing.Equation_annealing, 1.0);
      ("equation + guardband", Sizing.Equation_annealing, 1.25);
      ("awe-annealing (OBLX)", Sizing.Awe_annealing, 1.0);
      ("simulation-annealing", Sizing.Simulation_annealing, 1.0) ];
  Printf.printf
    "\nshape check: the plan is orders of magnitude faster; the equation\nmodel is fast but first-order; simulation in the loop is slowest and\nmost exact.\n"

(* ---------------------------------------------------------------------- *)
(* E3: Fig. 2 - six layouts of the identical opamp                          *)
(* ---------------------------------------------------------------------- *)

let run_fig2 () =
  banner "E3: Fig. 2 - six layouts of the identical CMOS opamp";
  Printf.printf
    "paper: two KOAN/ANAGRAM II automatic layouts compare favourably with\nfour manual layouts of the same opamp.\n\n";
  let nl =
    Top.miller_ota.Tp.build tech
      [| 60e-6; 20e-6; 30e-6; 60e-6; 45e-6; 1e-6; 50e-6; 3e-12; 5e-12 |]
  in
  let show (r : Mixsyn_layout.Cell_flow.report) =
    Printf.printf "%-20s %9.0f um2 %8.1f um %4d vias  %-10s %6.2f fF\n"
      r.Mixsyn_layout.Cell_flow.flow_name
      (r.Mixsyn_layout.Cell_flow.area_m2 *. 1e12)
      (r.Mixsyn_layout.Cell_flow.wirelength_m *. 1e6)
      r.Mixsyn_layout.Cell_flow.vias
      (if r.Mixsyn_layout.Cell_flow.complete then "routed" else "INCOMPLETE")
      (r.Mixsyn_layout.Cell_flow.sensitive_coupling_f *. 1e15)
  in
  Printf.printf "%-20s %13s %11s %9s %10s %9s\n" "layout" "area" "wire" "vias" "routing"
    "coupling";
  List.iter (fun style -> show (Mixsyn_layout.Cell_flow.procedural ~style nl)) [ 0; 1; 2; 3 ];
  List.iter (fun seed -> show (Mixsyn_layout.Cell_flow.koan ~seed nl)) [ 23; 57 ]

(* ---------------------------------------------------------------------- *)
(* E4: Fig. 3 - RAIL power grid                                             *)
(* ---------------------------------------------------------------------- *)

let run_fig3 () =
  banner "E4: Fig. 3 - RAIL power-grid synthesis for the data-channel chip";
  Printf.printf
    "paper: RAIL meets a demanding set of dc, ac and transient constraints\nautomatically, using AWE to evaluate the grid electrically.\n\n";
  let blocks = Mixsyn_assembly.Block.data_channel_testbench () in
  let fp = Mixsyn_assembly.Floorplan.floorplan ~seed:5 blocks in
  let r = Mixsyn_assembly.Power_grid.synthesize fp in
  let c = Mixsyn_assembly.Power_grid.default_constraints in
  let show name (m : Mixsyn_assembly.Power_grid.metrics) =
    Printf.printf "%-8s %8.2f%% %10.2f%% %12.2f%% %8.2fx %12.3f mm2\n" name
      (m.Mixsyn_assembly.Power_grid.ir_drop *. 100.)
      (m.Mixsyn_assembly.Power_grid.spike *. 100.)
      (m.Mixsyn_assembly.Power_grid.victim_bounce *. 100.)
      m.Mixsyn_assembly.Power_grid.em_overload
      (m.Mixsyn_assembly.Power_grid.metal_area *. 1e6)
  in
  Printf.printf "%-8s %9s %11s %13s %9s %14s\n" "design" "IR-drop" "spike" "victim" "EM"
    "metal";
  Printf.printf "%-8s %8.2f%% %10.2f%% %12.2f%% %8s %14s\n" "limit"
    (c.Mixsyn_assembly.Power_grid.max_ir_drop *. 100.)
    (c.Mixsyn_assembly.Power_grid.max_spike *. 100.)
    (c.Mixsyn_assembly.Power_grid.max_victim_bounce *. 100.)
    "1.00x" "minimise";
  show "before" r.Mixsyn_assembly.Power_grid.before;
  show "after" r.Mixsyn_assembly.Power_grid.after;
  Printf.printf "\nconstraints %s after %d width-sizing iterations\n"
    (if r.Mixsyn_assembly.Power_grid.meets then "MET" else "VIOLATED")
    r.Mixsyn_assembly.Power_grid.iterations

(* ---------------------------------------------------------------------- *)
(* E5: corner-aware synthesis CPU overhead                                  *)
(* ---------------------------------------------------------------------- *)

let run_corners () =
  banner "E5: manufacturability - worst-case corner synthesis overhead";
  Printf.printf
    "paper: the ASTRX/OBLX manufacturability extension costs roughly\n4X-10X the nominal synthesis CPU time.\n\n";
  let specs =
    [ Spec.spec "gain_db" (Spec.At_least 70.0);
      Spec.spec "ugf_hz" (Spec.At_least 8e6);
      Spec.spec "phase_margin_deg" (Spec.At_least 55.0) ]
  in
  let report =
    Mixsyn_synth.Manufacturability.synthesize ~seed:3 Top.miller_ota ~specs
      ~objectives:[ Spec.minimize "power_w" ]
  in
  let m = report.Mixsyn_synth.Manufacturability.nominal in
  let r = report.Mixsyn_synth.Manufacturability.robust in
  Printf.printf "%-28s %10.3fs %8d evals\n" "nominal synthesis" m.Sizing.elapsed_s
    m.Sizing.evaluations;
  Printf.printf "%-28s %10.3fs %8d evals\n" "corner-robust synthesis" r.Sizing.elapsed_s
    r.Sizing.evaluations;
  Printf.printf "CPU ratio: %.1fx (paper: 4X-10X; we sweep %d corners per move)\n"
    report.Mixsyn_synth.Manufacturability.cpu_ratio
    (List.length Mixsyn_circuit.Tech.corner_space);
  Printf.printf "worst-corner violation: nominal design %.4f -> robust design %.4f (%s)\n"
    report.Mixsyn_synth.Manufacturability.nominal_worst_violation
    report.Mixsyn_synth.Manufacturability.robust_worst_violation
    report.Mixsyn_synth.Manufacturability.worst_corner.Mixsyn_circuit.Tech.corner_name

(* ---------------------------------------------------------------------- *)
(* E6: stack extraction - exact vs O(n)                                     *)
(* ---------------------------------------------------------------------- *)

let synthetic_devices n seed =
  (* a synthetic diffusion graph: n same-width NMOS devices over a small
     pool of nets, chain-biased so long stacks exist *)
  let rng = Mixsyn_util.Rng.create seed in
  let nets = 2 + (n / 2) in
  List.init n (fun i ->
      let a = 1 + Mixsyn_util.Rng.int rng nets in
      let b = 1 + Mixsyn_util.Rng.int rng nets in
      { N.m_name = Printf.sprintf "m%d" i;
        drain = a;
        gate = 1 + Mixsyn_util.Rng.int rng nets;
        source = (if b = a then ((b + 1) mod nets) + 1 else b);
        bulk = 0;
        w = 10e-6;
        l = 1e-6;
        polarity = N.Nmos })

let run_stacks () =
  banner "E6: device stacking - exact enumeration vs the O(n) algorithm";
  Printf.printf
    "paper: extracting all optimal stacks is exponential [43]; [45]\nextracts one optimal stacking fast enough for a placer's inner loop.\n\n";
  Printf.printf "%6s %12s %12s %10s %12s %10s %8s\n" "n" "exact-time" "linear-time"
    "speedup" "states" "merges" "equal?";
  List.iter
    (fun n ->
      let devices = synthetic_devices n 7 in
      let t0 = Unix.gettimeofday () in
      let ex = Mixsyn_layout.Stacker.exact ~state_cap:300_000 devices in
      let t1 = Unix.gettimeofday () in
      let lin = Mixsyn_layout.Stacker.linear devices in
      let t2 = Unix.gettimeofday () in
      let exact_time = t1 -. t0 and linear_time = t2 -. t1 in
      Printf.printf "%6d %11.4fs %11.6fs %9.0fx %12d %6d/%-3d %8s\n" n exact_time
        linear_time
        (exact_time /. Float.max linear_time 1e-9)
        ex.Mixsyn_layout.Stacker.states_explored
        ex.Mixsyn_layout.Stacker.best.Mixsyn_layout.Stacker.merged_junctions
        lin.Mixsyn_layout.Stacker.merged_junctions
        (if ex.Mixsyn_layout.Stacker.capped then "capped"
         else if
           ex.Mixsyn_layout.Stacker.best.Mixsyn_layout.Stacker.merged_junctions
           = lin.Mixsyn_layout.Stacker.merged_junctions
         then "yes"
         else "no"))
    [ 4; 6; 8; 10; 12; 14; 16 ]

(* ---------------------------------------------------------------------- *)
(* E8: WREN/WRIGHT noise management                                          *)
(* ---------------------------------------------------------------------- *)

let run_wren () =
  banner "E8: WRIGHT substrate-aware floorplanning + WREN SNR routing";
  Printf.printf
    "paper: WRIGHT folds a fast substrate-noise evaluator into floorplan\ncost; WREN routes to designer noise-rejection limits; segregated\nchannels remain practical only for small layouts.\n\n";
  let blocks = Mixsyn_assembly.Block.data_channel_testbench () in
  section "floorplanning";
  Printf.printf "%-14s %10s %12s %16s\n" "cost" "area" "wirelength" "victim noise";
  List.iter
    (fun (label, weight) ->
      let fp = Mixsyn_assembly.Floorplan.floorplan ~seed:5 ~noise_weight:weight blocks in
      Printf.printf "%-14s %7.2f mm2 %9.1f mm %13.1f mV\n" label
        (fp.Mixsyn_assembly.Floorplan.fp_area *. 1e6)
        (fp.Mixsyn_assembly.Floorplan.fp_wirelength *. 1e3)
        (Mixsyn_assembly.Floorplan.total_victim_noise fp *. 1e3))
    [ ("noise-blind", 0.0); ("noise-aware", 2.0) ];
  section "global routing (on the noise-aware floorplan)";
  let fp = Mixsyn_assembly.Floorplan.floorplan ~seed:5 ~noise_weight:2.0 blocks in
  Printf.printf "%-14s %8s %12s %22s\n" "mode" "routed" "wirelength" "shared-with-aggressor";
  List.iter
    (fun (label, mode) ->
      let r = Mixsyn_assembly.Wren.route ~mode fp in
      Printf.printf "%-14s %4d/%-3d %9.1f mm %18.0f um\n" label
        (List.length r.Mixsyn_assembly.Wren.routed)
        (List.length r.Mixsyn_assembly.Wren.routed
         + List.length r.Mixsyn_assembly.Wren.unrouted)
        (r.Mixsyn_assembly.Wren.total_length *. 1e3)
        (r.Mixsyn_assembly.Wren.shared_length *. 1e6))
    [ ("noise-blind", Mixsyn_assembly.Wren.Noise_blind);
      ("snr", Mixsyn_assembly.Wren.Snr_constrained);
      ("segregated", Mixsyn_assembly.Wren.Segregated) ]

(* ---------------------------------------------------------------------- *)
(* E9: ISAAC symbolic analysis and simplification                            *)
(* ---------------------------------------------------------------------- *)

let run_isaac () =
  banner "E9: ISAAC - symbolic analysis up to opamp complexity";
  Printf.printf
    "paper: computer symbolic ac analysis handles full opamps; magnitude\npruning trades term count against accuracy for insight and speed.\n\n";
  let cases =
    [ ("ota-5t", Top.ota_5t, [| 50e-6; 25e-6; 40e-6; 1e-6; 100e-6; 2e-12 |]);
      ("miller-ota", Top.miller_ota,
       [| 60e-6; 20e-6; 30e-6; 60e-6; 45e-6; 1e-6; 50e-6; 3e-12; 5e-12 |]) ]
  in
  List.iter
    (fun (name, t, x) ->
      let nl = t.Tp.build tech x in
      let out = N.find_net nl "out" in
      let r = Mixsyn_symbolic.Analyze.transfer nl ~out in
      let op = Mixsyn_engine.Dc.solve ~tech nl in
      let v = Mixsyn_symbolic.Analyze.valuation ~tech nl op in
      section "%s: %d exact terms" name (Mixsyn_symbolic.Analyze.term_count r);
      Printf.printf "%10s %10s %14s %14s\n" "threshold" "terms" "coeff error" "mag error";
      List.iter
        (fun th ->
          let report = Mixsyn_symbolic.Simplify.prune ~value:v ~threshold:th r in
          let freqs =
            Mixsyn_engine.Ac.log_sweep ~decades_from:0.0 ~decades_to:9.0 ~points_per_decade:3
          in
          let err =
            Mixsyn_symbolic.Simplify.magnitude_error ~value:v ~exact:r
              ~approx:report.Mixsyn_symbolic.Simplify.simplified ~freqs
          in
          Printf.printf "%10.3f %10d %13.2f%% %13.2f%%\n" th
            report.Mixsyn_symbolic.Simplify.terms_after
            (report.Mixsyn_symbolic.Simplify.max_coeff_error *. 100.0)
            (err *. 100.0))
        [ 0.001; 0.01; 0.05; 0.25 ])
    cases

(* ---------------------------------------------------------------------- *)
(* E10: parasitic-bounded routing (ROAD / ANAGRAM III)                        *)
(* ---------------------------------------------------------------------- *)

let run_road () =
  banner "E10: parasitic-bounded routing vs plain maze routing";
  Printf.printf
    "paper: ROAD/ANAGRAM III route against parasitic bounds derived from\nsensitivities instead of generic cost; critical nets get cleaner wire.\n\n";
  let nl =
    Top.miller_ota.Tp.build tech
      [| 60e-6; 20e-6; 30e-6; 60e-6; 45e-6; 1e-6; 50e-6; 3e-12; 5e-12 |]
  in
  let plain = Mixsyn_layout.Cell_flow.koan ~seed:23 nl in
  let bounded =
    Mixsyn_layout.Cell_flow.koan ~seed:23 ~coupling_budgets:[ ("o1", 1e-18); ("d1", 1e-18) ] nl
  in
  Printf.printf "%-22s %16s %16s %12s\n" "router" "o1 coupling" "d1 coupling" "wirelength";
  List.iter
    (fun (label, (r : Mixsyn_layout.Cell_flow.report)) ->
      Printf.printf "%-22s %13.3f fF %13.3f fF %9.1f um\n" label
        (Mixsyn_layout.Maze_router.coupling_on r.Mixsyn_layout.Cell_flow.route "o1" *. 1e15)
        (Mixsyn_layout.Maze_router.coupling_on r.Mixsyn_layout.Cell_flow.route "d1" *. 1e15)
        (r.Mixsyn_layout.Cell_flow.wirelength_m *. 1e6))
    [ ("plain (ANAGRAM II)", plain); ("bounded (ROAD-style)", bounded) ]

(* ---------------------------------------------------------------------- *)
(* Supplementary: high-level converter synthesis (the section 2.1 example)  *)
(* ---------------------------------------------------------------------- *)

let run_adc () =
  banner "Supplementary: A/D converter high-level synthesis (section 2.1's example)";
  Printf.printf
    "paper: the methodology's opening example is selecting flash / SAR /\ndelta-sigma for an ADC and translating its specs onto subblocks\n(the AZTECA/CATALYST and SDOPT line, [19,20]).\n\n";
  let module C = Mixsyn_synth.Converter in
  Printf.printf "%5s %12s | %12s %12s %12s %12s | %s\n" "bits" "rate" "flash" "sar"
    "pipeline" "delta-sigma" "chosen";
  List.iter
    (fun (bits, rate) ->
      let spec = { C.bits; rate_hz = rate; vref = 2.0 } in
      let estimates, best = C.select spec in
      let cell arch =
        match List.find_opt (fun (e : C.estimate) -> e.C.arch = arch) estimates with
        | Some e when e.C.feasible -> Mixsyn_util.Units.format e.C.power_w "W"
        | Some _ -> "-"
        | None -> "?"
      in
      Printf.printf "%5d %9.0f kS | %12s %12s %12s %12s | %s\n" bits (rate /. 1e3)
        (cell C.Flash) (cell C.Sar) (cell C.Pipeline) (cell C.Delta_sigma)
        (match best with Some b -> C.architecture_name b.C.arch | None -> "NONE"))
    [ (6, 50e6); (8, 100e3); (8, 10e6); (10, 1e6); (12, 100e3); (12, 1e6); (14, 44.1e3) ];
  let s = C.synthesize ~seed:29 { C.bits = 10; rate_hz = 1e6; vref = 2.0 } in
  Printf.printf
    "\nspec translation closes the hierarchy: 10b/1MS -> %s -> comparator\n(gain >= %.0f dB, bw >= %.0f MHz) sized at device level: %s, %s\n"
    (C.architecture_name s.C.chosen.C.arch) s.C.chosen.C.comparator_gain_db
    (s.C.chosen.C.comparator_bw_hz /. 1e6)
    (Mixsyn_util.Units.format
       (Option.value (Spec.lookup s.C.comparator.Sizing.performance "power_w") ~default:0.0)
       "W")
    (if s.C.comparator.Sizing.meets_specs then "specs MET" else "specs MISSED")

(* ---------------------------------------------------------------------- *)
(* Ablations: the design choices DESIGN.md section 5 calls out             *)
(* ---------------------------------------------------------------------- *)

let run_ablations () =
  banner "Ablations: design choices isolated";

  section "placer cooling schedule (KOAN-style annealing, miller opamp)";
  let nl =
    Top.miller_ota.Tp.build tech
      [| 60e-6; 20e-6; 30e-6; 60e-6; 45e-6; 1e-6; 50e-6; 3e-12; 5e-12 |]
  in
  let items, _, sym = Mixsyn_layout.Cell_flow.items_of_netlist nl in
  Printf.printf "%8s %10s %12s %12s %9s\n" "cooling" "time" "area" "wirelength" "overlap";
  List.iter
    (fun cooling ->
      let schedule =
        { Mixsyn_opt.Anneal.t_start = 1e3; t_end = 1e-3; cooling; moves_per_stage = 400 }
      in
      let t0 = Unix.gettimeofday () in
      let placement = Mixsyn_layout.Placer.place ~schedule ~seed:23 items sym in
      let dt = Unix.gettimeofday () -. t0 in
      let _, area, wl, _ = Mixsyn_layout.Placer.cost_parts items sym placement in
      Printf.printf "%8.2f %9.2fs %9.0f um2 %9.1f um %9b\n" cooling dt (area *. 1e12)
        (wl *. 1e6)
        (Mixsyn_layout.Placer.overlap_free items placement))
    [ 0.85; 0.93; 0.97 ];

  section "AWE order in the RAIL transient oracle";
  let blocks = Mixsyn_assembly.Block.data_channel_testbench () in
  let fp = Mixsyn_assembly.Floorplan.floorplan ~seed:5 blocks in
  let design =
    { Mixsyn_assembly.Power_grid.pitch = 0.8e-3;
      strap_widths = Array.make 20 10e-6;
      n_vertical = 10;
      n_horizontal = 10 }
  in
  Printf.printf "%6s %12s %12s\n" "order" "spike" "eval time";
  List.iter
    (fun order ->
      let t0 = Unix.gettimeofday () in
      let m = Mixsyn_assembly.Power_grid.evaluate ~awe_order:order fp design in
      Printf.printf "%6d %11.2f%% %10.1f ms\n" order
        (m.Mixsyn_assembly.Power_grid.spike *. 100.)
        ((Unix.gettimeofday () -. t0) *. 1e3))
    [ 1; 2; 3; 5 ];

  section "evaluator cost inside the sizing loop (the OBLX motivation)";
  let x = Tp.midpoint Top.miller_ota in
  let time_evals label f =
    let t0 = Unix.gettimeofday () in
    let n = 200 in
    for _ = 1 to n do
      ignore (f ())
    done;
    Printf.printf "%-24s %10.1f evals/s\n" label
      (float_of_int n /. (Unix.gettimeofday () -. t0))
  in
  time_evals "equations" (fun () -> Mixsyn_synth.Equations.evaluate Top.miller_ota x);
  time_evals "awe hybrid" (fun () -> Mixsyn_synth.Evaluate.awe_hybrid Top.miller_ota x);
  time_evals "full simulation" (fun () ->
      Mixsyn_synth.Evaluate.full_simulation Top.miller_ota x);

  section "substrate-noise weight in the floorplan cost (WRIGHT)";
  Printf.printf "%8s %10s %16s\n" "weight" "area" "victim noise";
  List.iter
    (fun w ->
      let fp = Mixsyn_assembly.Floorplan.floorplan ~seed:5 ~noise_weight:w blocks in
      Printf.printf "%8.1f %7.2f mm2 %13.1f mV\n" w
        (fp.Mixsyn_assembly.Floorplan.fp_area *. 1e6)
        (Mixsyn_assembly.Floorplan.total_victim_noise fp *. 1e3))
    [ 0.0; 0.5; 2.0; 8.0 ];

  section "Monte-Carlo yield of nominal vs corner-robust sizing";
  let specs =
    [ Spec.spec "gain_db" (Spec.At_least 70.0);
      Spec.spec "ugf_hz" (Spec.At_least 8e6);
      Spec.spec "phase_margin_deg" (Spec.At_least 55.0) ]
  in
  let report =
    Mixsyn_synth.Manufacturability.synthesize ~seed:3 Top.miller_ota ~specs
      ~objectives:[ Spec.minimize "power_w" ]
  in
  let y_nominal =
    Mixsyn_synth.Manufacturability.yield_estimate Top.miller_ota
      report.Mixsyn_synth.Manufacturability.nominal.Sizing.params ~specs
  in
  let y_robust =
    Mixsyn_synth.Manufacturability.yield_estimate Top.miller_ota
      report.Mixsyn_synth.Manufacturability.robust.Sizing.params ~specs
  in
  Printf.printf "nominal sizing yield: %5.1f%%   corner-robust sizing yield: %5.1f%%\n"
    (100. *. y_nominal) (100. *. y_robust)

let all =
  [ ("table1", run_table1);
    ("fig1", run_fig1);
    ("fig2", run_fig2);
    ("fig3", run_fig3);
    ("corners", run_corners);
    ("stacks", run_stacks);
    ("wren", run_wren);
    ("isaac", run_isaac);
    ("road", run_road);
    ("adc", run_adc);
    ("ablations", run_ablations) ]

(* run one experiment inside a fresh telemetry scope: its tables go to
   stdout, the counters and spans that produced them to stderr, so stdout
   holds nothing but the experiment's results *)
let run_one (name, f) =
  Mixsyn_util.Telemetry.reset ();
  f ();
  flush stdout;
  Format.eprintf "\n-- telemetry: %s --\n%a@." name Mixsyn_util.Telemetry.pp_report ()

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [] -> List.iter run_one all
  | names ->
    List.iter
      (fun name ->
        match List.assoc_opt name all with
        | Some f -> run_one (name, f)
        | None ->
          Printf.eprintf "unknown experiment %s; available: %s\n" name
            (String.concat " " (List.map fst all));
          exit 1)
      names
