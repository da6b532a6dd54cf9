(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, plus the quantified claims in its text, and (with `micro`)
   runs Bechamel micro-benchmarks of the computational kernels.

     dune exec bench/main.exe            # all experiments
     dune exec bench/main.exe -- table1  # one experiment
     dune exec bench/main.exe -- micro   # Bechamel kernels

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
      let t0 = Unix.gettimeofday () in
      let r = Mixsyn_symbolic.Analyze.transfer nl ~out in
      let dt = Unix.gettimeofday () -. t0 in
      let op = Mixsyn_engine.Dc.solve ~tech nl in
      let v = Mixsyn_symbolic.Analyze.valuation ~tech nl op in
      section "%s: %d exact terms in %.2f s" name (Mixsyn_symbolic.Analyze.term_count r) dt;
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
(* Bechamel micro-benchmarks of the computational kernels                    *)
(* ---------------------------------------------------------------------- *)

let micro () =
  let open Bechamel in
  let nl5t = Top.ota_5t.Tp.build tech [| 50e-6; 25e-6; 40e-6; 1e-6; 100e-6; 2e-12 |] in
  let op5t = Mixsyn_engine.Dc.solve ~tech nl5t in
  let out5t = N.find_net nl5t "out" in
  let x_miller = Tp.midpoint Top.miller_ota in
  let tests =
    [ Test.make ~name:"e1-detector-awe-measure"
        (Staged.stage (fun () ->
             ignore
               (Mixsyn_synth.Pulse_detector.measure
                  Mixsyn_circuit.Detector.expert_manual_sizing)));
      Test.make ~name:"e2-dc-newton-miller"
        (Staged.stage (fun () ->
             ignore (Mixsyn_engine.Dc.solve ~tech (Top.miller_ota.Tp.build tech x_miller))));
      Test.make ~name:"e2-equation-evaluate"
        (Staged.stage (fun () ->
             ignore (Mixsyn_synth.Equations.evaluate Top.miller_ota x_miller)));
      Test.make ~name:"e2-awe-of-circuit"
        (Staged.stage (fun () ->
             ignore (Mixsyn_awe.Awe.of_circuit ~tech nl5t op5t ~out:out5t ~order:4)));
      Test.make ~name:"e9-symbolic-transfer-5t"
        (Staged.stage (fun () -> ignore (Mixsyn_symbolic.Analyze.transfer nl5t ~out:out5t)));
      Test.make ~name:"e6-linear-stacking"
        (Staged.stage (fun () -> ignore (Mixsyn_layout.Stacker.linear (N.mos_list nl5t))));
      (let blocks = Mixsyn_assembly.Block.data_channel_testbench () in
       let fp = Mixsyn_assembly.Floorplan.floorplan ~seed:5 blocks in
       let design =
         { Mixsyn_assembly.Power_grid.pitch = 0.8e-3;
           strap_widths = Array.make 20 10e-6;
           n_vertical = 10;
           n_horizontal = 10 }
       in
       Test.make ~name:"e4-powergrid-evaluate"
         (Staged.stage (fun () -> ignore (Mixsyn_assembly.Power_grid.evaluate fp design)))) ]
  in
  List.iter
    (fun test ->
      let instance = Toolkit.Instance.monotonic_clock in
      let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) () in
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.iter
        (fun name raw ->
          let stats =
            Analyze.one
              (Analyze.ols ~bootstrap:0 ~r_square:false
                 ~predictors:[| "run" |])
              instance raw
          in
          match Analyze.OLS.estimates stats with
          | Some [ est ] -> Printf.printf "%-28s %12.1f ns/run\n" name est
          | Some _ | None -> Printf.printf "%-28s (no estimate)\n" name)
        results)
    tests

(* ---------------------------------------------------------------------- *)


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

(* ---------------------------------------------------------------------- *)
(* Parallel: domain-pool speedup on the hot evaluation loops                *)
(* ---------------------------------------------------------------------- *)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* wall-clock stability: every timed experiment runs [bench_repeats ()]
   times (>= 3 by default) and reports the median and the min, so a
   one-off scheduler hiccup can't fake a regression — or a speedup *)
let bench_repeats () =
  match Option.bind (Sys.getenv_opt "MIXSYN_BENCH_REPEATS") int_of_string_opt with
  | Some r when r >= 1 -> r
  | Some _ | None -> 3

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let k = Array.length a in
  if k = 0 then 0.0
  else if k mod 2 = 1 then a.(k / 2)
  else 0.5 *. (a.((k / 2) - 1) +. a.(k / 2))

let fmin xs = List.fold_left Float.min infinity xs

(* the scaling curve every parallel experiment measures: sequential
   baseline plus these worker counts (the CI gate reads the last point) *)
let curve_jobs = [ 2; 4 ]

let run_parallel () =
  banner "Parallel: domain-pool speedup on the hot evaluation loops";
  let host_cores = Mixsyn_util.Pool.available_cores () in
  let top_jobs = List.fold_left max 1 curve_jobs in
  let repeats = bench_repeats () in
  let gc0 = Gc.quick_stat () in
  Printf.printf
    "each pool loop runs at --jobs 1 then --jobs {%s} on the same seed (%d repeats,\n\
     median reported); the deterministic reduction makes the results bit-identical.\n\
     this host exposes %d core(s); the pool never fans out past them.\n\
     sweeps run inline, so ac-sweep is timed at --jobs 1 only.\n\n"
    (String.concat "," (List.map string_of_int curve_jobs))
    repeats host_cores;
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* median and min wall time over [repeats] runs, and whether every run
     reproduced [expect] *)
  let timed ~expect first_s f =
    let runs = List.init (repeats - 1) (fun _ -> time f) in
    let ss = first_s :: List.map snd runs in
    (median ss, fmin ss, List.for_all (fun (r, _) -> r = expect) runs)
  in
  let rows = ref [] in
  (* a [sequential] row is timed and allocation-capped at --jobs 1 only *)
  let bench ?(sequential = false) ~items name f =
    (* allocation is measured on the first sequential run: at --jobs 1
       every solve happens on this domain, so [Gc.minor_words] is exact *)
    let w0 = Gc.minor_words () in
    let seq, seq_s0 = time (fun () -> f 1) in
    let words_per_item = (Gc.minor_words () -. w0) /. float_of_int (max 1 items) in
    let seq_s, seq_min, seq_same = timed ~expect:seq seq_s0 (fun () -> f 1) in
    let curve =
      List.map
        (fun j ->
          let par, par_s0 = time (fun () -> f j) in
          let par_s, par_min, par_same = timed ~expect:par par_s0 (fun () -> f j) in
          (j, par_s, par_min, seq_s /. Float.max par_s 1e-9, par_same && seq = par))
        (if sequential then [] else curve_jobs)
    in
    let identical = seq_same && List.for_all (fun (_, _, _, _, id) -> id) curve in
    Printf.printf "%-20s seq %7.3fs " name seq_s;
    List.iter
      (fun (j, par_s, _, speedup, _) -> Printf.printf " j%d %7.3fs %5.2fx " j par_s speedup)
      curve;
    Printf.printf " identical %b  %8.0f w/item\n" identical words_per_item;
    rows := (name, seq_s, seq_min, curve, identical, words_per_item) :: !rows
  in
  let nl =
    Top.miller_ota.Tp.build tech
      [| 60e-6; 20e-6; 30e-6; 60e-6; 45e-6; 1e-6; 50e-6; 3e-12; 5e-12 |]
  in
  (* annealing multi-start: 4 independent placement chains *)
  let items, _, sym = Mixsyn_layout.Cell_flow.items_of_netlist nl in
  bench ~items:4 "anneal-multistart" (fun j ->
      Mixsyn_layout.Placer.place ~seed:23 ~restarts:4 ~jobs:j items sym);
  (* corner sweep: 17 vertices, each a full simulation of the midpoint
     sizing at that corner *)
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
  bench ~items:(List.length Mixsyn_circuit.Tech.corner_space) "corner-sweep" (fun j ->
      let c, v, e = Mixsyn_opt.Corner_search.worst_corner ~refine:false ~jobs:j ~violation () in
      (c.Mixsyn_circuit.Tech.d_vdd, c.Mixsyn_circuit.Tech.d_temp,
       c.Mixsyn_circuit.Tech.d_vth, c.Mixsyn_circuit.Tech.d_kp, v, e));
  (* dense AC sweep: one complex solve per frequency point, inline *)
  let op = Mixsyn_engine.Dc.solve ~tech nl in
  let freqs =
    Mixsyn_engine.Ac.log_sweep ~decades_from:0.0 ~decades_to:9.0 ~points_per_decade:300
  in
  bench ~sequential:true ~items:(Array.length freqs) "ac-sweep" (fun _ ->
      (Mixsyn_engine.Ac.solve ~tech nl op ~freqs).Mixsyn_engine.Ac.solutions);
  let rows = List.rev !rows in
  let top_point curve = List.nth curve (List.length curve - 1) in
  let best_speedup =
    List.fold_left
      (fun acc (_, _, _, curve, _, _) ->
        if curve = [] then acc
        else
          let _, _, _, s, _ = top_point curve in
          Float.max acc s)
      0.0 rows
  in
  let curve_json curve =
    String.concat ","
      (List.map
         (fun (j, p, pmin, sp, _) ->
           Printf.sprintf "{\"jobs\":%d,\"par_s\":%.4f,\"par_s_min\":%.4f,\"speedup\":%.3f}"
             j p pmin sp)
         curve)
  in
  let benches_json =
    String.concat ","
      (List.map
         (fun (n, s, smin, curve, id, w) ->
           let seq_fields =
             Printf.sprintf "\"name\":\"%s\",\"seq_s\":%.4f,\"seq_s_min\":%.4f" n s smin
           in
           let tail = Printf.sprintf "\"identical\":%b,\"minor_words_per_item\":%.1f" id w in
           if curve = [] then Printf.sprintf "{%s,%s}" seq_fields tail
           else
             let _, p, pmin, sp, _ = top_point curve in
             Printf.sprintf
               "{%s,\"par_s\":%.4f,\"par_s_min\":%.4f,\"speedup\":%.3f,%s,\"speedups_by_jobs\":[%s]}"
               seq_fields p pmin sp tail (curve_json curve))
         rows)
  in
  let gc1 = Gc.quick_stat () in
  write_file "BENCH_parallel.json"
    (Printf.sprintf
       "{\"experiment\":\"parallel\",\"jobs\":%d,\"host_cores\":%d,\"jobs_measured\":[%s],\"repeats\":%d,\"benches\":[%s],\"best_speedup\":%.3f,\"gc_minor\":%d,\"gc_major\":%d}\n"
       top_jobs host_cores
       (String.concat "," (List.map string_of_int (1 :: curve_jobs)))
       repeats benches_json best_speedup
       (gc1.Gc.minor_collections - gc0.Gc.minor_collections)
       (gc1.Gc.major_collections - gc0.Gc.major_collections));
  Printf.printf "\nbest speedup %.2fx at %d jobs (recorded in BENCH_parallel.json)\n"
    best_speedup top_jobs

(* ---------------------------------------------------------------------- *)
(* Batch: high-throughput batch synthesis - determinism and resume          *)
(* ---------------------------------------------------------------------- *)

let run_batch () =
  let module Batch = Mixsyn_flow.Batch in
  let module Json = Mixsyn_util.Json in
  banner "Batch: manifest execution - journal determinism and checkpoint/resume";
  let host_cores = Mixsyn_util.Pool.available_cores () in
  let top_jobs = List.fold_left max 1 curve_jobs in
  let n = 48 in
  (* every 8th job asks for a gain the certified interval bounds prove
     unreachable on the 5T OTA (its enclosure tops out well under 1000 dB),
     so the static prefilter must journal it as infeasible without running
     the executor — and the skip must survive the byte-identity checks *)
  let infeasible i = i mod 8 = 3 in
  let n_infeasible = List.length (List.filter infeasible (List.init n Fun.id)) in
  Printf.printf
    "a %d-job manifest (%d provably infeasible) runs at --jobs {1,%s};\nthe finished journal must be byte-identical at every worker count, and\nidentical again when the parallel run resumes from a journal cut mid-record.\n\n"
    n n_infeasible
    (String.concat "," (List.map string_of_int curve_jobs));
  let manifest_text =
    String.concat "\n"
      (List.init n (fun i ->
           Printf.sprintf
             "{\"id\": \"job-%02d\", \"seed\": %d, \"specs\": [{\"name\": \"gain_db\", \"at_least\": %s}], \"topology\": \"ota-5t\"}"
             i (i + 1)
             (if infeasible i then "1000.0" else "40.0")))
  in
  let manifest =
    match Batch.manifest_of_string manifest_text with
    | Ok jobs -> jobs
    | Error msg -> failwith ("batch bench manifest: " ^ msg)
  in
  (* the executor is a deterministic stand-in for a full flow: a burst of
     DC solves on a seed-perturbed 5T OTA, heavy enough that the pool has
     work to schedule but cheap enough to sweep 2 x 48 jobs in seconds *)
  let executor (_ : Batch.job) ~seed =
    let mid = Tp.midpoint Top.ota_5t in
    let params =
      Array.mapi
        (fun i v -> v *. (1.0 +. (0.002 *. float_of_int ((seed * 31 + i) mod 5))))
        mid
    in
    let nl = Top.ota_5t.Tp.build tech params in
    let power = ref 0.0 in
    for _ = 1 to 25 do
      let op = Mixsyn_engine.Dc.solve ~tech nl in
      power := Mixsyn_engine.Dc.power nl op
    done;
    Json.Obj [ ("power_w", Json.Num !power); ("solves", Json.Num 25.0) ]
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let read path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let j_seq = Filename.temp_file "msyn_bench_batch_seq" ".journal" in
  let j_par = Filename.temp_file "msyn_bench_batch_par" ".journal" in
  Sys.remove j_seq;
  Sys.remove j_par;
  let repeats = bench_repeats () in
  let gc0 = Gc.quick_stat () in
  (* a repeat must start from a clean journal — resuming a finished one
     would just skip every job — so the journal is deleted between runs;
     the bytes compared below come from the first run of each mode *)
  let rerun ~jobs journal =
    List.init (repeats - 1) (fun _ ->
        Sys.remove journal;
        snd (time (fun () -> Batch.run ~jobs ~executor ~journal manifest)))
  in
  let w0 = Gc.minor_words () in
  let s_seq, seq_s0 = time (fun () -> Batch.run ~jobs:1 ~executor ~journal:j_seq manifest) in
  let minor_words_per_job = (Gc.minor_words () -. w0) /. float_of_int n in
  let bytes_seq = read j_seq in
  let seq_ss = seq_s0 :: rerun ~jobs:1 j_seq in
  let seq_s = median seq_ss in
  Printf.printf "%-24s %8.3fs  %5.1f jobs/s\n" "sequential (--jobs 1)" seq_s
    (float_of_int n /. Float.max seq_s 1e-9);
  (* the scaling curve: a fresh journal per worker count, every finished
     journal compared byte-for-byte against the sequential one *)
  let last_summary = ref s_seq in
  let curve =
    List.map
      (fun j ->
        if Sys.file_exists j_par then Sys.remove j_par;
        let s, par_s0 =
          time (fun () -> Batch.run ~jobs:j ~executor ~journal:j_par manifest)
        in
        let bytes = read j_par in
        let par_ss = par_s0 :: rerun ~jobs:j j_par in
        let par_s = median par_ss in
        last_summary := s;
        Printf.printf "%-24s %8.3fs  %5.1f jobs/s\n"
          (Printf.sprintf "parallel (--jobs %d)" j)
          par_s
          (float_of_int n /. Float.max par_s 1e-9);
        (j, par_s, fmin par_ss, seq_s /. Float.max par_s 1e-9,
         String.equal bytes_seq bytes))
      curve_jobs
  in
  let s_par = !last_summary in
  let _, par_s, par_s_min, speedup, _ = List.nth curve (List.length curve - 1) in
  let identical = List.for_all (fun (_, _, _, _, id) -> id) curve in
  (* simulate an interruption: keep the first half of the parallel journal
     plus a torn final line, then resume and demand the same bytes again *)
  let half =
    let lines = String.split_on_char '\n' bytes_seq in
    let keep = List.filteri (fun i _ -> i < n / 2) lines in
    String.concat "\n" keep ^ "\n" ^ "{\"id\":\"job-99\",\"seed\""
  in
  write_file j_par half;
  let s_res, _ =
    time (fun () -> Batch.run ~jobs:top_jobs ~executor ~journal:j_par manifest)
  in
  let resume_identical = String.equal bytes_seq (read j_par) in
  let throughput = float_of_int n /. Float.max par_s 1e-9 in
  Printf.printf "journal identical at every job count: %b\n" identical;
  Printf.printf "resume from torn journal:  %d skipped, identical %b\n"
    s_res.Batch.skipped resume_identical;
  Printf.printf "prefiltered as infeasible:  %d (expected %d)\n" s_par.Batch.prefiltered
    n_infeasible;
  if
    s_seq.Batch.completed <> n - n_infeasible
    || s_par.Batch.completed <> n - n_infeasible
    || s_par.Batch.prefiltered <> n_infeasible
  then
    Printf.printf "WARNING: %d/%d/%d of %d completed, %d/%d prefiltered\n"
      s_seq.Batch.completed s_par.Batch.completed s_res.Batch.completed n
      s_par.Batch.prefiltered n_infeasible;
  Sys.remove j_seq;
  Sys.remove j_par;

  (* cross-job stage cache: a repeated-spec manifest (the stratified-sampler
     shape — many jobs, few distinct sizing inputs) through the real
     Flow.size_stage, timed with the cache bypassed and then enabled from
     cold; the journals must be byte-identical either way *)
  section "cross-job stage cache (repeated-spec manifest)";
  let cache_n = 32 in
  let cache_uniq = 4 in
  let cache_manifest =
    let text =
      String.concat "\n"
        (List.init cache_n (fun i ->
             Printf.sprintf
               "{\"id\": \"cache-%02d\", \"seed\": 7, \"specs\": [{\"name\": \"gain_db\", \"at_least\": %.1f}], \"objectives\": [{\"minimize\": \"power_w\"}], \"topology\": \"ota-5t\"}"
               i
               (30.0 +. float_of_int (i mod cache_uniq))))
    in
    match Batch.manifest_of_string text with
    | Ok jobs -> jobs
    | Error msg -> failwith ("batch bench cache manifest: " ^ msg)
  in
  let schedule =
    { Mixsyn_opt.Anneal.t_start = 10.0; t_end = 0.05; cooling = 0.85; moves_per_stage = 300 }
  in
  let sizing_executor ~stage_cache (job : Batch.job) ~seed =
    let r =
      Mixsyn_flow.Flow.size_stage ~strategy:Sizing.Equation_annealing ~schedule ~stage_cache
        ~seed ~context:job.Batch.context ~specs:job.Batch.specs
        ~objectives:job.Batch.objectives Top.ota_5t
    in
    Json.Obj
      [ ("cost", Json.Num r.Sizing.cost);
        ("evaluations", Json.Num (float_of_int r.Sizing.evaluations)) ]
  in
  let j_cache = Filename.temp_file "msyn_bench_batch_cache" ".journal" in
  let run_cache ~stage_cache () =
    if Sys.file_exists j_cache then Sys.remove j_cache;
    Mixsyn_flow.Flow.clear_stage_cache ();
    time (fun () ->
        Batch.run ~jobs:top_jobs ~prefilter:false
          ~executor:(sizing_executor ~stage_cache) ~journal:j_cache cache_manifest)
  in
  let s_unc, un0 = run_cache ~stage_cache:false () in
  let bytes_uncached = read j_cache in
  let un_ss =
    un0 :: List.init (repeats - 1) (fun _ -> snd (run_cache ~stage_cache:false ()))
  in
  let s_cached, c0 = run_cache ~stage_cache:true () in
  let bytes_cached = read j_cache in
  let c_ss =
    c0 :: List.init (repeats - 1) (fun _ -> snd (run_cache ~stage_cache:true ()))
  in
  Sys.remove j_cache;
  let uncached_s = median un_ss and cached_s = median c_ss in
  let cache_hits = s_cached.Batch.cache_hits
  and cache_misses = s_cached.Batch.cache_misses in
  let cache_hit_rate =
    float_of_int cache_hits /. float_of_int (max 1 (cache_hits + cache_misses))
  in
  let cache_identical = String.equal bytes_uncached bytes_cached in
  let cache_speedup = uncached_s /. Float.max cached_s 1e-9 in
  if s_unc.Batch.completed <> cache_n || s_cached.Batch.completed <> cache_n then
    Printf.printf "WARNING: cache manifest completed %d/%d uncached, %d/%d cached\n"
      s_unc.Batch.completed cache_n s_cached.Batch.completed cache_n;
  Printf.printf "%-24s %8.3fs\n" "cache bypassed" uncached_s;
  Printf.printf "%-24s %8.3fs  (%d hits / %d misses, %.0f%% hit rate)\n" "cache enabled"
    cached_s cache_hits cache_misses (100.0 *. cache_hit_rate);
  Printf.printf "cache speedup %.2fx, journal identical cached/uncached: %b\n"
    cache_speedup cache_identical;

  let gc1 = Gc.quick_stat () in
  let curve_json =
    String.concat ","
      (List.map
         (fun (j, p, pmin, sp, _) ->
           Printf.sprintf "{\"jobs\":%d,\"par_s\":%.4f,\"par_s_min\":%.4f,\"speedup\":%.3f}"
             j p pmin sp)
         curve)
  in
  write_file "BENCH_batch.json"
    (Printf.sprintf
       "{\"experiment\":\"batch\",\"jobs\":%d,\"host_cores\":%d,\"jobs_measured\":[%s],\"n_jobs\":%d,\"repeats\":%d,\"completed\":%d,\"prefiltered_jobs\":%d,\"seq_s\":%.4f,\"seq_s_min\":%.4f,\"par_s\":%.4f,\"par_s_min\":%.4f,\"speedup\":%.3f,\"speedups_by_jobs\":[%s],\"jobs_per_s\":%.2f,\"identical\":%b,\"resume_identical\":%b,\"resume_skipped\":%d,\"minor_words_per_job\":%.1f,\"stage_cache\":{\"n_jobs\":%d,\"unique_keys\":%d,\"hits\":%d,\"misses\":%d,\"hit_rate\":%.3f,\"uncached_s\":%.4f,\"cached_s\":%.4f,\"speedup\":%.3f,\"identical\":%b},\"gc_minor\":%d,\"gc_major\":%d}\n"
       top_jobs host_cores
       (String.concat "," (List.map string_of_int (1 :: curve_jobs)))
       n repeats s_par.Batch.completed s_par.Batch.prefiltered seq_s (fmin seq_ss) par_s
       par_s_min speedup curve_json throughput identical resume_identical
       s_res.Batch.skipped minor_words_per_job cache_n cache_uniq cache_hits cache_misses
       cache_hit_rate uncached_s cached_s cache_speedup cache_identical
       (gc1.Gc.minor_collections - gc0.Gc.minor_collections)
       (gc1.Gc.major_collections - gc0.Gc.major_collections));
  Printf.printf "\n%d jobs, %.1f jobs/s at %d workers (recorded in BENCH_batch.json)\n" n
    throughput top_jobs

(* ---------------------------------------------------------------------- *)
(* Serve: the persistent synthesis service - HTTP throughput and contract   *)
(* ---------------------------------------------------------------------- *)

let run_serve () =
  let module Batch = Mixsyn_flow.Batch in
  let module Serve = Mixsyn_flow.Serve in
  let module Http = Mixsyn_util.Http in
  let module Json = Mixsyn_util.Json in
  banner "Serve: persistent synthesis service - request latency and byte-identity";
  let host_cores = Mixsyn_util.Pool.available_cores () in
  let workers = List.fold_left max 1 curve_jobs in
  let n = 24 in
  let infeasible i = i mod 8 = 3 in
  Printf.printf
    "a %d-job manifest is submitted over HTTP to a %d-worker server; the\ndrained journal must be byte-identical to a sequential batch run, and\nthe read path is timed for requests/s and latency percentiles.\n\n"
    n workers;
  let manifest_lines =
    List.init n (fun i ->
        Printf.sprintf
          "{\"id\": \"srv-%02d\", \"seed\": %d, \"specs\": [{\"name\": \"gain_db\", \"at_least\": %s}], \"topology\": \"ota-5t\"}"
          i (i + 1)
          (if infeasible i then "1000.0" else "40.0"))
  in
  let manifest =
    match Batch.manifest_of_string (String.concat "\n" manifest_lines) with
    | Ok jobs -> jobs
    | Error msg -> failwith ("serve bench manifest: " ^ msg)
  in
  (* the deterministic stand-in executor the batch bench uses, lightened:
     a burst of DC solves on a seed-perturbed 5T OTA *)
  let executor (_ : Batch.job) ~seed =
    let mid = Tp.midpoint Top.ota_5t in
    let params =
      Array.mapi
        (fun i v -> v *. (1.0 +. (0.002 *. float_of_int ((seed * 31 + i) mod 5))))
        mid
    in
    let nl = Top.ota_5t.Tp.build tech params in
    let power = ref 0.0 in
    for _ = 1 to 5 do
      let op = Mixsyn_engine.Dc.solve ~tech nl in
      power := Mixsyn_engine.Dc.power nl op
    done;
    Json.Obj [ ("power_w", Json.Num !power); ("solves", Json.Num 5.0) ]
  in
  let read path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  (* the sequential batch reference journal *)
  let j_ref = Filename.temp_file "msyn_bench_serve_ref" ".journal" in
  Sys.remove j_ref;
  ignore (Batch.run ~jobs:1 ~executor ~journal:j_ref manifest);
  let bytes_ref = read j_ref in
  Sys.remove j_ref;
  (* boot the server on an ephemeral loopback port *)
  let j_srv = Filename.temp_file "msyn_bench_serve" ".journal" in
  Sys.remove j_srv;
  let cfg =
    { (Serve.default_config ~journal:j_srv) with Serve.workers; queue_capacity = 256 }
  in
  let slot = Atomic.make None in
  let server =
    Domain.spawn (fun () ->
        Serve.run ~executor ~on_ready:(fun h -> Atomic.set slot (Some h)) cfg)
  in
  let rec handle () =
    match Atomic.get slot with
    | Some h -> h
    | None ->
      Unix.sleepf 0.005;
      handle ()
  in
  let h = handle () in
  let port = Serve.port h in
  let call meth path body =
    match Http.request ?body ~timeout_s:30.0 ~host:"127.0.0.1" ~port ~meth ~path () with
    | Ok (status, _, body) -> (status, body)
    | Error msg -> failwith (Printf.sprintf "serve bench: %s %s: %s" meth path msg)
  in
  let state_of body =
    match Json.parse body with
    | Ok j -> Option.value ~default:"?" (Option.bind (Json.member "state" j) Json.to_str)
    | Error _ -> "?"
  in
  (* submit the whole manifest, then poll everything to completion *)
  let t_submit = Unix.gettimeofday () in
  List.iter (fun line -> ignore (call "POST" "/jobs" (Some line))) manifest_lines;
  List.iteri
    (fun i _ ->
      let id = Printf.sprintf "srv-%02d" i in
      let rec poll () =
        let _, body = call "GET" ("/jobs/" ^ id) None in
        match state_of body with
        | "queued" | "running" ->
          Unix.sleepf 0.01;
          poll ()
        | _ -> ()
      in
      poll ())
    manifest_lines;
  let jobs_s = Unix.gettimeofday () -. t_submit in
  Printf.printf "%-28s %8.3fs  %5.1f jobs/s\n" "submit + execute + poll" jobs_s
    (float_of_int n /. Float.max jobs_s 1e-9);
  (* read-path latency: one-shot status and health requests, each timed *)
  let n_requests = 300 in
  let latencies =
    Array.init n_requests (fun i ->
        let path = if i mod 3 = 0 then "/healthz" else Printf.sprintf "/jobs/srv-%02d" (i mod n) in
        let t0 = Unix.gettimeofday () in
        ignore (call "GET" path None);
        Unix.gettimeofday () -. t0)
  in
  let total_s = Array.fold_left ( +. ) 0.0 latencies in
  let rps = float_of_int n_requests /. Float.max total_s 1e-9 in
  Array.sort compare latencies;
  let pct p =
    latencies.(min (n_requests - 1) (int_of_float (p *. float_of_int (n_requests - 1) +. 0.5)))
  in
  let p50_ms = pct 0.50 *. 1e3 and p99_ms = pct 0.99 *. 1e3 in
  Printf.printf "%-28s %8.0f req/s  p50 %.2f ms  p99 %.2f ms\n" "read path (one-shot conns)"
    rps p50_ms p99_ms;
  (* graceful drain, then the byte-identity verdict *)
  let stats = (Serve.drain h; Domain.join server) in
  let bytes_srv = read j_srv in
  Sys.remove j_srv;
  let identical = String.equal bytes_ref bytes_srv in
  let drained = stats.Serve.finished = n in
  Printf.printf "journal identical to sequential batch: %b\n" identical;
  Printf.printf "drained cleanly: %b (%d finished, %d requests served)\n" drained
    stats.Serve.finished stats.Serve.requests;
  (* queue-bound sanity: a 1-worker, capacity-1 server under a burst must
     shed load with 429s rather than grow without bound *)
  let j_q = Filename.temp_file "msyn_bench_serve_q" ".journal" in
  Sys.remove j_q;
  let slow (_ : Batch.job) ~seed =
    Unix.sleepf 0.2;
    Json.Obj [ ("seed", Json.Num (float_of_int seed)) ]
  in
  let cfg_q =
    { (Serve.default_config ~journal:j_q) with Serve.workers = 1; queue_capacity = 1 }
  in
  let slot_q = Atomic.make None in
  let server_q =
    Domain.spawn (fun () ->
        Serve.run ~executor:slow ~on_ready:(fun h -> Atomic.set slot_q (Some h)) cfg_q)
  in
  let rec handle_q () =
    match Atomic.get slot_q with
    | Some h -> h
    | None ->
      Unix.sleepf 0.005;
      handle_q ()
  in
  let hq = handle_q () in
  let burst = 8 in
  let rejected = ref 0 in
  for i = 0 to burst - 1 do
    let body = Printf.sprintf "{\"id\": \"burst-%d\"}" i in
    match
      Http.request ~timeout_s:30.0 ~body ~host:"127.0.0.1" ~port:(Serve.port hq)
        ~meth:"POST" ~path:"/jobs" ()
    with
    | Ok (429, _, _) -> incr rejected
    | Ok _ -> ()
    | Error msg -> failwith ("serve bench burst: " ^ msg)
  done;
  let stats_q = (Serve.drain hq; Domain.join server_q) in
  Sys.remove j_q;
  let queue_full_429 = !rejected in
  Printf.printf "burst of %d on a capacity-1 queue: %d rejected with 429 (server saw %d)\n"
    burst queue_full_429 stats_q.Serve.rejected_queue_full;
  write_file "BENCH_serve.json"
    (Printf.sprintf
       "{\"experiment\":\"serve\",\"host_cores\":%d,\"workers\":%d,\"n_jobs\":%d,\"jobs_wall_s\":%.4f,\"jobs_per_s\":%.2f,\"requests\":%d,\"rps\":%.1f,\"p50_ms\":%.3f,\"p99_ms\":%.3f,\"queue_full_429\":%d,\"journal_identical\":%b,\"drained\":%b,\"requests_served\":%d}\n"
       host_cores workers n jobs_s
       (float_of_int n /. Float.max jobs_s 1e-9)
       n_requests rps p50_ms p99_ms queue_full_429 identical drained
       stats.Serve.requests);
  Printf.printf "\n%.0f req/s, p99 %.2f ms (recorded in BENCH_serve.json)\n" rps p99_ms

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
    ("ablations", run_ablations);
    ("parallel", run_parallel);
    ("batch", run_batch);
    ("serve", run_serve) ]

(* experiments that write their own richer BENCH_<name>.json *)
let self_reporting = [ "parallel"; "batch"; "serve" ]

(* run repeats with stdout parked on /dev/null: the repeat is purely for
   timing, and every experiment prints its tables as it runs *)
let quiet f =
  flush stdout;
  Format.print_flush ();
  let saved = Unix.dup Unix.stdout in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 devnull Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Format.print_flush ();
      Unix.dup2 saved Unix.stdout;
      Unix.close saved;
      Unix.close devnull)
    f

(* run one experiment inside a fresh telemetry scope and print its report,
   so each table/figure comes with the counters and spans that produced it;
   a machine-readable BENCH_<name>.json records median/min wall time over
   [bench_repeats ()] runs, evaluation throughput and the GC collections
   the experiment caused, for trend tracking.  Self-reporting experiments
   repeat internally and are run once here. *)
let run_one (name, f) =
  Mixsyn_util.Telemetry.reset ();
  let gc0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  f ();
  let wall_s0 = Unix.gettimeofday () -. t0 in
  if not (List.mem name self_reporting) then begin
    let evals =
      List.fold_left
        (fun acc c -> acc + Mixsyn_util.Telemetry.counter c)
        0
        [ "sizing.evaluator_invocations"; "anneal.proposed"; "ac.freq_points" ]
    in
    let walls =
      wall_s0
      :: List.init
           (bench_repeats () - 1)
           (fun _ ->
             Mixsyn_util.Telemetry.reset ();
             let t0 = Unix.gettimeofday () in
             quiet f;
             Unix.gettimeofday () -. t0)
    in
    let gc1 = Gc.quick_stat () in
    let wall_s = median walls in
    write_file
      (Printf.sprintf "BENCH_%s.json" name)
      (Printf.sprintf
         "{\"experiment\":\"%s\",\"wall_s\":%.4f,\"wall_s_min\":%.4f,\"repeats\":%d,\"jobs\":%d,\"evals\":%d,\"evals_per_s\":%.1f,\"gc_minor\":%d,\"gc_major\":%d}\n"
         name wall_s (fmin walls) (List.length walls)
         (Mixsyn_util.Pool.default_jobs ())
         evals
         (float_of_int evals /. Float.max wall_s 1e-9)
         (gc1.Gc.minor_collections - gc0.Gc.minor_collections)
         (gc1.Gc.major_collections - gc0.Gc.major_collections))
  end;
  Printf.printf "\n-- telemetry: %s --\n" name;
  Format.printf "%a@." Mixsyn_util.Telemetry.pp_report ()

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [] -> List.iter run_one all
  | [ "micro" ] -> micro ()
  | names ->
    List.iter
      (fun name ->
        match List.assoc_opt name all with
        | Some f -> run_one (name, f)
        | None ->
          Printf.eprintf "unknown experiment %s; available: micro %s\n" name
            (String.concat " " (List.map fst all));
          exit 1)
      names
