(* msyn: the mixsyn command-line driver.

   One subcommand per stage of the mixed-signal flow, mirroring the paper's
   structure: frontend (topo, size, table1), backend (layout), system
   assembly (floorplan, powergrid, wren) and the full flow (flow). *)

open Cmdliner

let find_template name =
  match
    List.find_opt
      (fun t -> t.Mixsyn_circuit.Template.t_name = name)
      Mixsyn_circuit.Topology.all
  with
  | Some t -> t
  | None ->
    Printf.eprintf "unknown topology %s; available:\n" name;
    List.iter
      (fun (t : Mixsyn_circuit.Template.t) ->
        Printf.eprintf "  %s - %s\n" t.Mixsyn_circuit.Template.t_name
          t.Mixsyn_circuit.Template.description)
      Mixsyn_circuit.Topology.all;
    exit 1

let specs_of ~gain ~ugf ~pm =
  [ Mixsyn_synth.Spec.spec "gain_db" (Mixsyn_synth.Spec.At_least gain);
    Mixsyn_synth.Spec.spec "ugf_hz" (Mixsyn_synth.Spec.At_least ugf);
    Mixsyn_synth.Spec.spec "phase_margin_deg" (Mixsyn_synth.Spec.At_least pm) ]

let objectives = [ Mixsyn_synth.Spec.minimize "power_w" ]

(* common arguments *)
let gain_arg =
  Arg.(value & opt float 70.0 & info [ "gain" ] ~docv:"DB" ~doc:"Minimum DC gain in dB.")

let ugf_arg =
  Arg.(value & opt float 10e6 & info [ "ugf" ] ~docv:"HZ" ~doc:"Minimum unity-gain frequency.")

let pm_arg =
  Arg.(value & opt float 60.0 & info [ "pm" ] ~docv:"DEG" ~doc:"Minimum phase margin.")

let cl_arg =
  Arg.(value & opt float 5e-12 & info [ "cl" ] ~docv:"F" ~doc:"Load capacitance.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

(* job counts are validated in one place (Pool.jobs_of_string) for both the
   --jobs flag and the MIXSYN_JOBS environment variable, so `--jobs 0` and
   `MIXSYN_JOBS=-2` die with the same clear error instead of silently
   clamping downstream *)
let jobs_conv =
  let parse s =
    match Mixsyn_util.Pool.jobs_of_string s with
    | Ok n -> Ok n
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_env =
  Cmd.Env.info "MIXSYN_JOBS"
    ~doc:"Default worker-domain count for the parallel evaluation loops; the $(b,--jobs) \
          flag overrides it.  Rejected unless a positive integer."

let jobs_arg =
  Arg.(value & opt (some jobs_conv) None
       & info [ "jobs" ] ~docv:"N" ~env:jobs_env
           ~doc:"Worker domains for the outermost parallel loop (batch jobs, annealing \
                 multi-starts, GA populations, corner sweeps).  Defaults to \
                 $(b,MIXSYN_JOBS) or the machine's core count; results are identical at \
                 any value.  Must be at least 1.")

let apply_jobs = function
  | Some n -> Mixsyn_util.Pool.set_default_jobs n
  | None -> ()

let telemetry_arg =
  Arg.(value & flag
       & info [ "telemetry" ]
           ~doc:"Print the flow-wide telemetry report (counters and timed spans) after the command.")

let report_telemetry enabled =
  if enabled then Format.printf "@.%a@." Mixsyn_util.Telemetry.pp_report ()

let topology_arg =
  Arg.(value & opt string "miller-ota" & info [ "topology" ] ~docv:"NAME" ~doc:"Topology name.")

let strategy_arg =
  Arg.(value & opt string "sim"
       & info [ "strategy" ] ~docv:"S" ~doc:"Sizing strategy: plan, eq, awe or sim.")

(* --- size ------------------------------------------------------------ *)

let size_cmd =
  let run topology strategy gain ugf pm cl seed jobs telemetry =
    apply_jobs jobs;
    let template = find_template topology in
    let strategy =
      match strategy with
      | "plan" ->
        let plan =
          match
            List.find_opt
              (fun (p : Mixsyn_synth.Design_plan.t) ->
                p.Mixsyn_synth.Design_plan.topology.Mixsyn_circuit.Template.t_name = topology)
              Mixsyn_synth.Design_plan.all
          with
          | Some p -> p
          | None ->
            Printf.eprintf "no design plan for %s\n" topology;
            exit 1
        in
        Mixsyn_synth.Sizing.Design_plan plan
      | "eq" -> Mixsyn_synth.Sizing.Equation_annealing
      | "awe" -> Mixsyn_synth.Sizing.Awe_annealing
      | _ -> Mixsyn_synth.Sizing.Simulation_annealing
    in
    let result =
      Mixsyn_synth.Sizing.size ~seed ~context:[ ("cl", cl); ("load_cap_f", cl) ] strategy
        template ~specs:(specs_of ~gain ~ugf ~pm) ~objectives
    in
    Format.printf "%a@." Mixsyn_synth.Sizing.pp_result result;
    Array.iteri
      (fun i p ->
        Format.printf "  %-6s = %s@." p.Mixsyn_circuit.Template.p_name
          (Mixsyn_util.Units.format result.Mixsyn_synth.Sizing.params.(i) ""))
      template.Mixsyn_circuit.Template.params;
    report_telemetry telemetry
  in
  Cmd.v (Cmd.info "size" ~doc:"Size a topology against specifications.")
    Term.(const run $ topology_arg $ strategy_arg $ gain_arg $ ugf_arg $ pm_arg $ cl_arg $ seed_arg
          $ jobs_arg $ telemetry_arg)

(* --- topo ------------------------------------------------------------ *)

let topo_cmd =
  let run gain ugf pm telemetry =
    let specs = specs_of ~gain ~ugf ~pm in
    let feasible = Mixsyn_synth.Topo_select.interval_feasible specs Mixsyn_circuit.Topology.all in
    Format.printf "interval-feasible: %s@."
      (String.concat ", "
         (List.map (fun (t : Mixsyn_circuit.Template.t) -> t.Mixsyn_circuit.Template.t_name) feasible));
    List.iter
      (fun (v : Mixsyn_synth.Topo_select.verdict) ->
        Format.printf "%-16s score %6.2f@." v.Mixsyn_synth.Topo_select.template.Mixsyn_circuit.Template.t_name
          v.Mixsyn_synth.Topo_select.score;
        List.iter (Format.printf "    %s@.") v.Mixsyn_synth.Topo_select.rationale)
      (Mixsyn_synth.Topo_select.rule_based specs Mixsyn_circuit.Topology.all);
    report_telemetry telemetry
  in
  Cmd.v (Cmd.info "topo" ~doc:"Rank candidate topologies for a specification set.")
    Term.(const run $ gain_arg $ ugf_arg $ pm_arg $ telemetry_arg)

(* --- layout ----------------------------------------------------------- *)

let layout_cmd =
  let run topology seed telemetry =
    let template = find_template topology in
    let tech = Mixsyn_circuit.Tech.generic_07um in
    let params = Mixsyn_circuit.Template.midpoint template in
    let nl = template.Mixsyn_circuit.Template.build tech params in
    let koan = Mixsyn_layout.Cell_flow.koan ~seed nl in
    let proc = Mixsyn_layout.Cell_flow.procedural ~style:0 nl in
    let show (r : Mixsyn_layout.Cell_flow.report) =
      Format.printf "%-20s area %8.0f um2  wire %7.1f um  vias %3d  %s@."
        r.Mixsyn_layout.Cell_flow.flow_name
        (r.Mixsyn_layout.Cell_flow.area_m2 *. 1e12)
        (r.Mixsyn_layout.Cell_flow.wirelength_m *. 1e6)
        r.Mixsyn_layout.Cell_flow.vias
        (if r.Mixsyn_layout.Cell_flow.complete then "routed" else "INCOMPLETE")
    in
    show proc;
    show koan;
    report_telemetry telemetry
  in
  Cmd.v (Cmd.info "layout" ~doc:"Lay out a midpoint-sized topology, procedural vs KOAN.")
    Term.(const run $ topology_arg $ seed_arg $ telemetry_arg)

(* --- table1 ----------------------------------------------------------- *)

let table1_cmd =
  let run seed moves telemetry =
    let rows = Mixsyn_synth.Pulse_detector.table1 ~seed ~moves () in
    Format.printf "%a@." Mixsyn_synth.Pulse_detector.pp_rows rows;
    report_telemetry telemetry
  in
  let moves_arg =
    Arg.(value & opt int 40 & info [ "moves" ] ~docv:"N" ~doc:"Annealing moves per stage.")
  in
  Cmd.v (Cmd.info "table1" ~doc:"Reproduce the paper's Table 1 synthesis experiment.")
    Term.(const run $ seed_arg $ moves_arg $ telemetry_arg)

(* --- floorplan / powergrid / wren -------------------------------------- *)

let floorplan_cmd =
  let run seed telemetry =
    let blocks = Mixsyn_assembly.Block.data_channel_testbench () in
    let fp = Mixsyn_assembly.Floorplan.floorplan ~seed blocks in
    Format.printf "chip %.2f x %.2f mm, wirelength %.2f mm@."
      (fp.Mixsyn_assembly.Floorplan.chip_w *. 1e3)
      (fp.Mixsyn_assembly.Floorplan.chip_h *. 1e3)
      (fp.Mixsyn_assembly.Floorplan.fp_wirelength *. 1e3);
    List.iter
      (fun (p : Mixsyn_assembly.Floorplan.placement) ->
        Format.printf "  %-14s at (%.2f, %.2f) mm%s@."
          p.Mixsyn_assembly.Floorplan.block.Mixsyn_assembly.Block.b_name
          (p.Mixsyn_assembly.Floorplan.x *. 1e3) (p.Mixsyn_assembly.Floorplan.y *. 1e3)
          (if p.Mixsyn_assembly.Floorplan.rotated then " (rotated)" else ""))
      fp.Mixsyn_assembly.Floorplan.placements;
    List.iter
      (fun (name, v) -> Format.printf "  substrate noise at %-14s %.1f mV@." name (v *. 1e3))
      fp.Mixsyn_assembly.Floorplan.victim_noise;
    report_telemetry telemetry
  in
  Cmd.v (Cmd.info "floorplan" ~doc:"WRIGHT-style substrate-aware floorplan of the testbench chip.")
    Term.(const run $ seed_arg $ telemetry_arg)

let powergrid_cmd =
  let run seed telemetry =
    let blocks = Mixsyn_assembly.Block.data_channel_testbench () in
    let fp = Mixsyn_assembly.Floorplan.floorplan ~seed blocks in
    let r = Mixsyn_assembly.Power_grid.synthesize fp in
    let show name (m : Mixsyn_assembly.Power_grid.metrics) =
      Format.printf "%-8s ir %5.2f%%  spike %5.2f%%  victim %5.2f%%  em %5.2fx  metal %.3f mm2@."
        name
        (m.Mixsyn_assembly.Power_grid.ir_drop *. 100.)
        (m.Mixsyn_assembly.Power_grid.spike *. 100.)
        (m.Mixsyn_assembly.Power_grid.victim_bounce *. 100.)
        m.Mixsyn_assembly.Power_grid.em_overload
        (m.Mixsyn_assembly.Power_grid.metal_area *. 1e6)
    in
    show "before" r.Mixsyn_assembly.Power_grid.before;
    show "after" r.Mixsyn_assembly.Power_grid.after;
    Format.printf "%d iterations, constraints %s@." r.Mixsyn_assembly.Power_grid.iterations
      (if r.Mixsyn_assembly.Power_grid.meets then "MET" else "violated");
    report_telemetry telemetry
  in
  Cmd.v (Cmd.info "powergrid" ~doc:"RAIL-style power-grid synthesis (the Fig. 3 experiment).")
    Term.(const run $ seed_arg $ telemetry_arg)

let wren_cmd =
  let run seed telemetry =
    let blocks = Mixsyn_assembly.Block.data_channel_testbench () in
    let fp = Mixsyn_assembly.Floorplan.floorplan ~seed blocks in
    List.iter
      (fun (name, mode) ->
        let r = Mixsyn_assembly.Wren.route ~mode fp in
        Format.printf "%-12s routed %d/%d  length %.1f mm  shared-with-aggressor %.0f um@."
          name
          (List.length r.Mixsyn_assembly.Wren.routed)
          (List.length r.Mixsyn_assembly.Wren.routed + List.length r.Mixsyn_assembly.Wren.unrouted)
          (r.Mixsyn_assembly.Wren.total_length *. 1e3)
          (r.Mixsyn_assembly.Wren.shared_length *. 1e6))
      [ ("noise-blind", Mixsyn_assembly.Wren.Noise_blind);
        ("snr", Mixsyn_assembly.Wren.Snr_constrained);
        ("segregated", Mixsyn_assembly.Wren.Segregated) ];
    report_telemetry telemetry
  in
  Cmd.v (Cmd.info "wren" ~doc:"WREN global routing under the three noise disciplines.")
    Term.(const run $ seed_arg $ telemetry_arg)

(* --- hierarchy ---------------------------------------------------------- *)

let hierarchy_cmd =
  let run gain ugf telemetry =
    let specs =
      [ Mixsyn_synth.Spec.spec "gain_db" (Mixsyn_synth.Spec.At_least gain);
        Mixsyn_synth.Spec.spec "ugf_hz" (Mixsyn_synth.Spec.At_least ugf) ]
    in
    let r = Mixsyn_synth.Hierarchy.design Mixsyn_synth.Hierarchy.two_stage_amplifier specs in
    Format.printf "%a@." Mixsyn_synth.Hierarchy.pp r;
    Format.printf "chain specs %s@."
      (if Mixsyn_synth.Hierarchy.meets r specs then "MET" else "violated");
    report_telemetry telemetry
  in
  Cmd.v
    (Cmd.info "hierarchy"
       ~doc:"Hierarchical top-down/bottom-up design of a two-stage amplification chain.")
    Term.(const run $ gain_arg $ ugf_arg $ telemetry_arg)

(* --- yield --------------------------------------------------------------- *)

let yield_cmd =
  let run gain ugf pm seed telemetry =
    let specs = specs_of ~gain ~ugf ~pm in
    let report =
      Mixsyn_synth.Manufacturability.synthesize ~seed Mixsyn_circuit.Topology.miller_ota
        ~specs ~objectives
    in
    let y which params =
      let v =
        Mixsyn_synth.Manufacturability.yield_estimate Mixsyn_circuit.Topology.miller_ota
          params ~specs
      in
      Format.printf "%-22s yield %5.1f%%@." which (100.0 *. v)
    in
    y "nominal sizing" report.Mixsyn_synth.Manufacturability.nominal.Mixsyn_synth.Sizing.params;
    y "corner-robust sizing" report.Mixsyn_synth.Manufacturability.robust.Mixsyn_synth.Sizing.params;
    Format.printf "corner-synthesis CPU overhead: %.1fx@."
      report.Mixsyn_synth.Manufacturability.cpu_ratio;
    report_telemetry telemetry
  in
  Cmd.v
    (Cmd.info "yield" ~doc:"Monte-Carlo parametric yield of nominal vs corner-robust sizing.")
    Term.(const run $ gain_arg $ ugf_arg $ pm_arg $ seed_arg $ telemetry_arg)

(* --- adc ----------------------------------------------------------------- *)

let adc_cmd =
  let bits_arg = Arg.(value & opt int 10 & info [ "bits" ] ~docv:"N" ~doc:"Resolution.") in
  let rate_arg =
    Arg.(value & opt float 1e6 & info [ "rate" ] ~docv:"HZ" ~doc:"Sample rate.")
  in
  let run bits rate seed telemetry =
    let module C = Mixsyn_synth.Converter in
    let spec = { C.bits; rate_hz = rate; vref = 2.0 } in
    let estimates, _ = C.select spec in
    List.iter
      (fun (e : C.estimate) ->
        Format.printf "%-12s %s@." (C.architecture_name e.C.arch)
          (if e.C.feasible then Mixsyn_util.Units.format e.C.power_w "W"
           else "infeasible: " ^ Option.value e.C.infeasible_reason ~default:"?"))
      estimates;
    let s = C.synthesize ~seed spec in
    Format.printf "chosen: %s; comparator sized at device level: %s, specs %s@."
      (C.architecture_name s.C.chosen.C.arch)
      (Mixsyn_util.Units.format
         (Option.value
            (Mixsyn_synth.Spec.lookup s.C.comparator.Mixsyn_synth.Sizing.performance "power_w")
            ~default:0.0)
         "W")
      (if s.C.comparator.Mixsyn_synth.Sizing.meets_specs then "MET" else "MISSED");
    report_telemetry telemetry
  in
  Cmd.v
    (Cmd.info "adc" ~doc:"High-level A/D converter synthesis: architecture selection and comparator sizing.")
    Term.(const run $ bits_arg $ rate_arg $ seed_arg $ telemetry_arg)

(* --- lint -------------------------------------------------------------- *)

let lint_cmd =
  let module D = Mixsyn_check.Diagnostic in
  let module L = Mixsyn_check.Lint in
  let lint_topology_arg =
    Arg.(value & opt string "all"
         & info [ "topology" ] ~docv:"NAME" ~doc:"Topology to check, or $(b,all) for every one.")
  in
  let layout_arg =
    Arg.(value & flag
         & info [ "layout" ]
             ~doc:"Also lay each topology out (KOAN flow at midpoint sizing) and run the \
                   layout DRC and constraint-audit passes on it.")
  in
  let flow_arg =
    Arg.(value & flag
         & info [ "flow" ]
             ~doc:"Run the full synthesis flow once and lint its finished design with all \
                   three passes.  Overrides $(b,--topology) and $(b,--layout).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit diagnostics as a JSON array.")
  in
  let suppress_arg =
    Arg.(value & opt_all string []
         & info [ "suppress" ] ~docv:"RULE"
             ~doc:"Drop warnings/infos with this rule id (repeatable).  Errors are never \
                   suppressed.")
  in
  let inject_arg =
    Arg.(value & opt string "none"
         & info [ "inject" ] ~docv:"FAULT"
             ~doc:"Deliberately break the design before linting, to prove the gate trips: \
                   $(b,floating-gate) disconnects a MOS gate, $(b,broken-symmetry) splits a \
                   matched pair and mis-places one half (implies $(b,--layout)).")
  in
  let list_rules_arg =
    Arg.(value & flag
         & info [ "list-rules" ]
             ~doc:"Print every diagnostic rule id any pass can emit, with its one-line \
                   documentation, and exit.")
  in
  let run list_rules topology layout flow json suppress inject seed telemetry =
    if list_rules then begin
      Format.printf "%a@." Mixsyn_check.Registry.pp ();
      exit 0
    end;
    let module Netlist = Mixsyn_circuit.Netlist in
    let tech = Mixsyn_circuit.Tech.generic_07um in
    (* prefix each location with the design it came from so a combined run
       stays readable *)
    let tag name ds = List.map (fun (d : D.t) -> { d with D.loc = name ^ "/" ^ d.D.loc }) ds in
    let break_gate nl =
      (* reconnect the first MOS gate to a fresh, otherwise untouched net *)
      let nl = Netlist.copy nl in
      let orphan = Netlist.new_net ~name:"orphan" nl in
      let first = ref true in
      Netlist.map_elements nl (function
        | Netlist.Mos m when !first ->
          first := false;
          Netlist.Mos { m with Netlist.gate = orphan }
        | e -> e)
    in
    let split_pair nl =
      (* nudge one half of the first matched pair out of its stacking
         compatibility class (stacking needs exact L equality, matching
         tolerates 1 %) so the pair is realized as two separate cells *)
      match Mixsyn_layout.Sensitivity.matching_pairs nl with
      | [] ->
        Printf.eprintf "lint --inject broken-symmetry: design has no matched pair\n";
        exit 2
      | (_, b) :: _ ->
        ( Netlist.map_elements nl (function
            | Netlist.Mos m when m.Netlist.m_name = b ->
              Netlist.Mos { m with Netlist.l = m.Netlist.l *. 1.005 }
            | e -> e),
          b )
    in
    let displace_cell nl device (r : Mixsyn_layout.Cell_flow.report) =
      (* nudge the cell realizing [device] off its mirror position *)
      let stacking = Mixsyn_layout.Stacker.linear (Netlist.mos_list nl) in
      let item =
        match
          List.find_opt
            (fun (st : Mixsyn_layout.Stacker.stack) ->
              List.mem device st.Mixsyn_layout.Stacker.devices)
            stacking.Mixsyn_layout.Stacker.stacks
        with
        | Some { Mixsyn_layout.Stacker.devices = [ single ]; _ } -> single
        | Some st -> st.Mixsyn_layout.Stacker.st_name
        | None -> device
      in
      { r with
        Mixsyn_layout.Cell_flow.placed =
          List.map
            (fun (c : Mixsyn_layout.Cell.t) ->
              if c.Mixsyn_layout.Cell.cell_name = item then
                Mixsyn_layout.Cell.translate 0.0 8e-6 c
              else c)
            r.Mixsyn_layout.Cell_flow.placed }
    in
    let lint_one (t : Mixsyn_circuit.Template.t) =
      let nl = t.Mixsyn_circuit.Template.build tech (Mixsyn_circuit.Template.midpoint t) in
      let ds =
        match inject with
        | "floating-gate" ->
          let nl = break_gate nl in
          if layout then L.full nl (Mixsyn_layout.Cell_flow.koan ~seed nl) else L.netlist nl
        | "broken-symmetry" ->
          let nl, device = split_pair nl in
          L.full nl (displace_cell nl device (Mixsyn_layout.Cell_flow.koan ~seed nl))
        | "none" ->
          if layout then L.full nl (Mixsyn_layout.Cell_flow.koan ~seed nl) else L.netlist nl
        | other ->
          Printf.eprintf "lint: unknown fault %s (floating-gate or broken-symmetry)\n" other;
          exit 2
      in
      tag t.Mixsyn_circuit.Template.t_name ds
    in
    let diags =
      if flow then begin
        let o =
          Mixsyn_flow.Flow.run ~seed ~checks:false
            ~specs:(specs_of ~gain:70.0 ~ugf:10e6 ~pm:60.0)
            ~objectives ~context:[ ("cl", 5e-12) ] ()
        in
        let nl =
          o.Mixsyn_flow.Flow.template.Mixsyn_circuit.Template.build tech
            o.Mixsyn_flow.Flow.sizing.Mixsyn_synth.Sizing.params
        in
        tag o.Mixsyn_flow.Flow.template.Mixsyn_circuit.Template.t_name
          (L.full nl o.Mixsyn_flow.Flow.layout)
      end
      else begin
        let templates =
          if topology = "all" then Mixsyn_circuit.Topology.all else [ find_template topology ]
        in
        List.concat_map lint_one templates
      end
    in
    let diags = D.suppress ~rules:suppress diags in
    print_string (if json then D.to_json diags else D.render diags);
    print_newline ();
    report_telemetry telemetry;
    exit (L.exit_code diags)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Static verification: netlist ERC, and with --layout/--flow also layout DRC \
             and the symmetry/connectivity constraint audit.  Exits nonzero when any \
             error-severity diagnostic is found.")
    Term.(const run $ list_rules_arg $ lint_topology_arg $ layout_arg $ flow_arg $ json_arg
          $ suppress_arg $ inject_arg $ seed_arg $ telemetry_arg)

(* --- feas -------------------------------------------------------------- *)

let feas_cmd =
  let module B = Mixsyn_check.Bounds in
  let module I = Mixsyn_util.Interval in
  let module Json = Mixsyn_util.Json in
  let module Template = Mixsyn_circuit.Template in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as a JSON array.")
  in
  let contract_arg =
    Arg.(value & flag
         & info [ "contract" ]
             ~doc:"Also run the branch-and-prune box contractor against the \
                   specification set and report how many sub-boxes it proved \
                   infeasible on each topology.")
  in
  let run gain ugf pm cl json do_contract telemetry =
    let specs = specs_of ~gain ~ugf ~pm in
    let context = [ ("cl", cl) ] in
    let topologies = Mixsyn_circuit.Topology.all in
    let report (t : Template.t) =
      let certified = B.certify ~context t in
      let infeasible = B.infeasible_specs ~context specs t in
      let drift = B.annotation_drift t in
      let contraction = if do_contract then Some (B.contract ~context specs t) else None in
      (t, certified, infeasible, drift, contraction)
    in
    let reports = List.map report topologies in
    let any_feasible =
      List.exists (fun (_, _, infeasible, _, _) -> infeasible = []) reports
    in
    if json then begin
      let iv_json iv = Json.Obj [ ("lo", Json.Num (I.lo iv)); ("hi", Json.Num (I.hi iv)) ] in
      let items =
        List.map
          (fun ((t : Template.t), certified, infeasible, drift, contraction) ->
            Json.Obj
              ([ ("topology", Json.Str t.Template.t_name);
                 ("feasible", Json.Bool (infeasible = []));
                 ("certified", Json.Obj (List.map (fun (n, iv) -> (n, iv_json iv)) certified));
                 ( "infeasible",
                   Json.Arr
                     (List.map
                        (fun ((s : Mixsyn_synth.Spec.t), iv) ->
                          Json.Obj
                            [ ("spec", Json.Str s.Mixsyn_synth.Spec.s_name);
                              ("bound", Json.Str (B.bound_to_string s.Mixsyn_synth.Spec.bound));
                              ("certified_lo", Json.Num (I.lo iv));
                              ("certified_hi", Json.Num (I.hi iv)) ])
                        infeasible) );
                 ( "drift",
                   Json.Arr
                     (List.map
                        (fun (d : Mixsyn_check.Diagnostic.t) ->
                          Json.Obj
                            [ ("rule", Json.Str d.Mixsyn_check.Diagnostic.rule);
                              ("loc", Json.Str d.Mixsyn_check.Diagnostic.loc);
                              ("msg", Json.Str d.Mixsyn_check.Diagnostic.msg) ])
                        drift) ) ]
              @
              match contraction with
              | None -> []
              | Some c ->
                [ ( "contraction",
                    Json.Obj
                      [ ("explored", Json.Num (float_of_int c.B.explored));
                        ("pruned", Json.Num (float_of_int c.B.pruned));
                        ("infeasible", Json.Bool c.B.c_infeasible) ] ) ]))
          reports
      in
      print_endline (Json.to_string (Json.Arr items))
    end
    else
      List.iter
        (fun ((t : Template.t), certified, infeasible, drift, contraction) ->
          Format.printf "%s: %s@." t.Template.t_name
            (if infeasible = [] then "feasible" else "INFEASIBLE");
          List.iter
            (fun (name, iv) ->
              match List.assoc_opt name t.Template.feasibility with
              | Some hand ->
                Format.printf "  %-18s certified %a  hand %a@." name I.pp iv I.pp hand
              | None -> Format.printf "  %-18s certified %a@." name I.pp iv)
            certified;
          List.iter
            (fun ((s : Mixsyn_synth.Spec.t), iv) ->
              Format.printf "  spec %s %s is provably unsatisfiable: certified %a@."
                s.Mixsyn_synth.Spec.s_name
                (B.bound_to_string s.Mixsyn_synth.Spec.bound)
                I.pp iv)
            infeasible;
          List.iter
            (fun (d : Mixsyn_check.Diagnostic.t) ->
              Format.printf "  drift %s: %s@." d.Mixsyn_check.Diagnostic.loc
                d.Mixsyn_check.Diagnostic.msg)
            drift;
          Option.iter
            (fun (c : B.contraction) ->
              Format.printf "  contraction: pruned %d/%d sub-boxes%s@." c.B.pruned
                c.B.explored
                (if c.B.c_infeasible then " (entire box infeasible)" else ""))
            contraction)
        reports;
    report_telemetry telemetry;
    if not any_feasible then exit 1
  in
  let man =
    [ `S Manpage.s_description;
      `P "Abstract interpretation of the design equations over each topology's \
          parameter box: every metric gets a certified interval that encloses \
          everything any sizing inside the box can achieve.  A specification \
          outside the certified interval is provably unsatisfiable — the same \
          static screen the $(b,flow) pre-flight gate and the $(b,batch) \
          prefilter apply.";
      `P "Hand-annotated feasibility ranges that claim performance outside the \
          certified enclosure are reported as $(b,feas.annotation-drift) drift \
          lines.  Exits nonzero when the specification set is provably \
          unsatisfiable on every topology." ]
  in
  Cmd.v
    (Cmd.info "feas" ~man
       ~doc:"Certified interval performance bounds per topology, with spec \
             feasibility verdicts and annotation-drift warnings.")
    Term.(const run $ gain_arg $ ugf_arg $ pm_arg $ cl_arg $ json_arg $ contract_arg
          $ telemetry_arg)

(* --- batch ------------------------------------------------------------- *)

let batch_cmd =
  let module Batch = Mixsyn_flow.Batch in
  let manifest_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"MANIFEST"
             ~doc:"JSONL job manifest: one job object per line ($(b,id) required and \
                   unique; $(b,seed), $(b,specs), $(b,objectives), $(b,context), \
                   $(b,topology), $(b,max_redesigns), $(b,timeout_s), $(b,fault) \
                   optional).  Blank and $(b,#) comment lines are skipped.")
  in
  let journal_arg =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:"Append-only JSONL journal (default $(i,MANIFEST).journal).  Doubles as \
                   the checkpoint: re-running with the same manifest skips recorded jobs \
                   and resumes, tolerating a line truncated by a crash or kill.")
  in
  let timeout_arg =
    Arg.(value & opt float 0.0
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:"Per-job wall-clock timeout; expired jobs are recorded as \
                   $(b,timed_out) and the batch continues.  0 (the default) disables \
                   it; a job's $(b,timeout_s) manifest field overrides it.")
  in
  let retries_arg =
    Arg.(value & opt int 0
         & info [ "retries" ] ~docv:"N"
             ~doc:"Re-run a job that raised up to $(i,N) more times, each attempt with a \
                   deterministically perturbed seed, before recording it as $(b,failed).  \
                   Timeouts are not retried.")
  in
  let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Emit the summary as JSON.") in
  let no_prefilter_arg =
    Arg.(value & flag
         & info [ "no-prefilter" ]
             ~doc:"Disable the static feasibility prefilter and run every job, even \
                   those whose specs the certified interval bounds prove \
                   unsatisfiable.")
  in
  let no_stage_cache_arg =
    Arg.(value & flag
         & info [ "no-stage-cache" ]
             ~doc:"Disable the cross-job sizing stage cache, so every job re-runs its \
                   sizing even when another job already computed the identical \
                   (topology, specs, objectives, context, seed) combination.  The \
                   journal is byte-identical with the cache on or off — this flag \
                   exists for A/B timing and for identity tests.")
  in
  let strict_arg =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Exit nonzero when any job failed or timed out (by default the batch \
                   reports them in the summary and exits 0).")
  in
  let run manifest journal jobs timeout retries json no_prefilter no_stage_cache strict
      telemetry =
    apply_jobs jobs;
    if retries < 0 then begin
      Printf.eprintf "msyn batch: retries must be non-negative (got %d)\n" retries;
      exit 2
    end;
    let journal = Option.value journal ~default:(manifest ^ ".journal") in
    let timeout_s = if timeout > 0.0 then Some timeout else None in
    match Batch.load_manifest manifest with
    | Error msg ->
      Printf.eprintf "msyn batch: %s\n" msg;
      exit 2
    | Ok jobs_list ->
      (match
         Batch.run ?timeout_s ~retries ~prefilter:(not no_prefilter)
           ~stage_cache:(not no_stage_cache) ~journal jobs_list
       with
       | summary ->
         if json then begin
           print_endline (Mixsyn_util.Json.to_string (Batch.summary_to_json summary));
           (* keep stdout a single parseable document in JSON mode *)
           Format.eprintf "journal: %s@." journal
         end
         else begin
           Format.printf "%a" Batch.pp_summary summary;
           Format.printf "journal: %s@." journal
         end;
         report_telemetry telemetry;
         if strict && summary.Batch.completed < summary.Batch.total then exit 1
       | exception Invalid_argument msg ->
         Printf.eprintf "msyn batch: %s\n" msg;
         exit 2)
  in
  let man =
    [ `S Manpage.s_description;
      `P "Execute a manifest of synthesis jobs concurrently on the shared domain pool, \
          streaming one record per job to an append-only JSONL journal.  A job that \
          raises (solver divergence, static-check gate, NaN guard) becomes a structured \
          $(b,failed) record with its diagnostics; a job past $(b,--timeout) is \
          cancelled cooperatively and recorded as $(b,timed_out); everything else \
          keeps running.";
      `P "Before any job runs, the static feasibility prefilter (see $(b,msyn feas)) \
          certifies interval performance bounds over each job's candidate topologies; \
          a job with a provably unsatisfiable spec is journalled as $(b,infeasible) \
          (with the spec, its bound and the certified range) without consuming a \
          worker, a timeout slot or any annealing work.  $(b,--no-prefilter) disables \
          the screen.  Prefilter decisions are a pure function of the manifest, so \
          journal byte-identity across $(b,--jobs) values and resumes is preserved.";
      `P "The journal is the checkpoint: records are flushed in manifest order, so an \
          interrupted run leaves a clean prefix (at worst one truncated line, discarded \
          on resume).  Re-running the same command skips recorded jobs, and the finished \
          journal is byte-identical whether or not the run was interrupted, at any \
          $(b,--jobs) value and with the stage cache on or off.";
      `P "Jobs whose sizing inputs coincide (same topology, specs, objectives, context \
          and seed — the common stratified-manifest shape) share one sizing run through \
          the cross-job stage cache; concurrent workers reaching the same key compute \
          it once (single-flight).  $(b,--no-stage-cache) bypasses the cache for A/B \
          timing.  The summary reports the run's hit/miss counts and per-domain busy \
          seconds.";
      `S "SCHEDULER KNOBS";
      `P "Whole jobs are the unit of work stealing: each domain claims one job at a \
          time from the shared queue, keeping its warm per-domain solver workspaces \
          across consecutive jobs, and everything inside a job runs inline on its \
          domain.  $(b,--jobs) (or $(b,MIXSYN_JOBS)) sets the worker count, but the \
          pool never runs more domains than the machine has cores.";
      `S "MANIFEST FORMAT";
      `P "One JSON object per line, for example:";
      `Pre "  {\"id\": \"ota-70db\", \"seed\": 13,\n\
           \   \"specs\": [{\"name\": \"gain_db\", \"at_least\": 70.0}],\n\
           \   \"objectives\": [{\"minimize\": \"power_w\"}],\n\
           \   \"context\": {\"cl\": 5e-12}, \"topology\": \"miller-ota\"}";
      `P "Spec bounds are $(b,at_least), $(b,at_most) or $(b,between) (with an optional \
          $(b,weight)); $(b,timeout_s) overrides the batch timeout per job; \
          $(b,fault) ($(i,raise) or $(i,hang)) injects a deliberate failure for \
          pipeline smoke tests." ]
  in
  Cmd.v
    (Cmd.info "batch" ~man
       ~doc:"High-throughput batch synthesis from a JSONL manifest, with per-job \
             timeouts, retries and checkpoint/resume.")
    Term.(const run $ manifest_arg $ journal_arg $ jobs_arg $ timeout_arg $ retries_arg
          $ json_arg $ no_prefilter_arg $ no_stage_cache_arg $ strict_arg $ telemetry_arg)

(* --- serve ------------------------------------------------------------- *)

let serve_cmd =
  let module Serve = Mixsyn_flow.Serve in
  let journal_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"JOURNAL"
             ~doc:"Append-only JSONL journal, shared with $(b,msyn batch): every admitted \
                   job is checkpointed here in submission order, and an existing journal's \
                   valid prefix is adopted on boot so a killed or drained server resumes \
                   where it stopped.")
  in
  let host_arg =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address.")
  in
  let port_arg =
    Arg.(value & opt int 8642
         & info [ "port" ] ~docv:"PORT"
             ~doc:"TCP port; $(b,0) binds an ephemeral port (printed on stdout).")
  in
  let workers_arg =
    Arg.(value & opt (some jobs_conv) None
         & info [ "workers" ] ~docv:"N"
             ~doc:"Worker domains executing jobs (default $(b,MIXSYN_JOBS) or the \
                   machine's core count), each running its job exactly like a \
                   $(b,msyn batch) worker.")
  in
  let queue_arg =
    Arg.(value & opt int 64
         & info [ "queue-capacity" ] ~docv:"N"
             ~doc:"Bound on queued (admitted but not yet running) jobs; past it \
                   submissions get $(b,429) with a $(b,Retry-After) header.")
  in
  let rate_arg =
    Arg.(value & opt float 0.0
         & info [ "rate-limit" ] ~docv:"R"
             ~doc:"Per-client token-bucket rate limit on submissions, in jobs per \
                   second; $(b,0) (the default) disables it.")
  in
  let burst_arg =
    Arg.(value & opt float 8.0
         & info [ "rate-burst" ] ~docv:"N"
             ~doc:"Token-bucket capacity: how many submissions a client may burst \
                   before the $(b,--rate-limit) rate applies.")
  in
  let timeout_arg =
    Arg.(value & opt float 0.0
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:"Default per-job wall-clock timeout, as in $(b,msyn batch); 0 \
                   disables it; a job's $(b,timeout_s) field overrides it.")
  in
  let retries_arg =
    Arg.(value & opt int 0
         & info [ "retries" ] ~docv:"N"
             ~doc:"Per-job retry budget on exceptions, as in $(b,msyn batch).")
  in
  let request_timeout_arg =
    Arg.(value & opt float 10.0
         & info [ "request-timeout" ] ~docv:"SECONDS"
             ~doc:"Per-request read/handle deadline; a stalled client is answered \
                   with $(b,408) and its connection is released.")
  in
  let no_prefilter_arg =
    Arg.(value & flag
         & info [ "no-prefilter" ]
             ~doc:"Disable the static feasibility screen on admission (see \
                   $(b,msyn batch)).")
  in
  let run journal host port workers queue_capacity rate_limit rate_burst timeout retries
      request_timeout no_prefilter telemetry =
    apply_jobs workers;
    if retries < 0 then begin
      Printf.eprintf "msyn serve: retries must be non-negative (got %d)\n" retries;
      exit 2
    end;
    if queue_capacity < 1 then begin
      Printf.eprintf "msyn serve: queue capacity must be at least 1 (got %d)\n"
        queue_capacity;
      exit 2
    end;
    let cfg =
      { (Serve.default_config ~journal) with
        Serve.host;
        port;
        workers = Option.value workers ~default:(Mixsyn_util.Pool.default_jobs ());
        queue_capacity;
        rate_limit;
        rate_burst;
        timeout_s = (if timeout > 0.0 then Some timeout else None);
        retries;
        prefilter = not no_prefilter;
        request_timeout_s = request_timeout }
    in
    match
      Serve.run
        ~on_ready:(fun h ->
          (* SIGTERM/SIGINT request a graceful drain: stop admitting, finish
             queued and running jobs, flush the journal, exit 0.  Serve.drain
             is a single atomic store, safe inside a signal handler. *)
          Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Serve.drain h));
          Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> Serve.drain h));
          Printf.printf "msyn serve: listening on http://%s:%d\n" host (Serve.port h);
          Printf.printf "msyn serve: journal %s\n%!" journal)
        cfg
    with
    | stats ->
      Printf.printf
        "msyn serve: drained — %d request(s), %d job(s) accepted (%d resumed), %d \
         finished, %d cancelled, rejected %d queue-full / %d rate-limited / %d draining\n"
        stats.Serve.requests stats.Serve.accepted stats.Serve.resumed stats.Serve.finished
        stats.Serve.cancelled stats.Serve.rejected_queue_full
        stats.Serve.rejected_rate_limited stats.Serve.rejected_draining;
      report_telemetry telemetry
    | exception Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "msyn serve: %s(%s): %s\n" fn arg (Unix.error_message e);
      exit 1
  in
  let man =
    [ `S Manpage.s_description;
      `P "Run the batch layer as a persistent HTTP/1.1 JSON service: one warm process \
          — domain pool spawned, sizing stage cache populated — accepting synthesis \
          jobs over HTTP instead of paying process cold-start per manifest.  Jobs use \
          the $(b,msyn batch) manifest line format and execute through exactly the \
          batch code path, so the journal the service writes is byte-identical to the \
          journal $(b,msyn batch) writes for the same jobs in the same order.";
      `P "Admitted jobs land in a bounded work queue feeding $(b,--workers) domains.  \
          When the queue is full, submissions are rejected with $(b,429) and a \
          $(b,Retry-After) header; $(b,--rate-limit) adds a per-client token bucket \
          on top.  Every admitted job is appended to the journal-as-checkpoint, so \
          killing the server (even $(b,SIGKILL)) loses at most one torn trailing \
          line, and rebooting against the same journal resumes: recorded jobs answer \
          instantly on resubmission.";
      `S "ENDPOINTS";
      `P "$(b,POST /jobs) — submit one job (manifest line format).  $(b,202) on \
          admission with $(i,{\"id\",\"state\"}); $(b,200) when the id is already \
          known (idempotent); $(b,400) malformed body; $(b,429) queue full or \
          rate-limited; $(b,503) draining."; `Noblank;
      `P "$(b,GET /jobs) — all job ids and states, in submission order."; `Noblank;
      `P "$(b,GET /jobs/)$(i,ID) — one job's state ($(i,queued), $(i,running), \
          $(i,completed), $(i,failed), $(i,timed_out), $(i,infeasible), \
          $(i,cancelled))."; `Noblank;
      `P "$(b,GET /jobs/)$(i,ID)$(b,/result) — the finished job's record, byte-for-byte \
          its journal line; $(b,409) while still queued or running."; `Noblank;
      `P "$(b,POST /jobs/)$(i,ID)$(b,/cancel) — cancel: a queued job is journalled \
          $(i,cancelled) without executing; a running job is cancelled cooperatively \
          at its next guard point; $(b,409) once finished."; `Noblank;
      `P "$(b,POST /drain) — graceful shutdown, identical to $(b,SIGTERM)."; `Noblank;
      `P "$(b,GET /healthz) — liveness; $(b,GET /metrics) — queue depth, job and \
          rejection counts, stage-cache hit rate, per-worker busy seconds and the \
          full telemetry rollup, as canonical JSON.";
      `S "DRAIN SEMANTICS";
      `P "$(b,SIGTERM), $(b,SIGINT) and $(b,POST /drain) all trigger the same \
          graceful drain: new submissions are refused with $(b,503) while status, \
          result and metrics queries keep answering; every queued and running job \
          finishes and is journalled; the journal is flushed and closed; the process \
          exits 0.  A drained journal is a clean prefix a later $(b,msyn serve) or \
          $(b,msyn batch) run resumes from." ]
  in
  Cmd.v
    (Cmd.info "serve" ~man
       ~doc:"Persistent HTTP synthesis service over the batch layer, with a bounded \
             work queue, rate limits, journal checkpointing and graceful drain.")
    Term.(const run $ journal_arg $ host_arg $ port_arg $ workers_arg $ queue_arg
          $ rate_arg $ burst_arg $ timeout_arg $ retries_arg $ request_timeout_arg
          $ no_prefilter_arg $ telemetry_arg)

(* --- flow -------------------------------------------------------------- *)

let flow_cmd =
  let run gain ugf pm cl seed jobs telemetry =
    apply_jobs jobs;
    match
      Mixsyn_flow.Flow.run ~seed ~specs:(specs_of ~gain ~ugf ~pm) ~objectives
        ~context:[ ("cl", cl) ] ()
    with
    | o ->
      Format.printf "%a@." Mixsyn_flow.Flow.pp_outcome o;
      report_telemetry telemetry
    | exception Mixsyn_check.Lint.Check_failed diags ->
      Printf.eprintf "flow: static checks failed\n%s\n"
        (Mixsyn_check.Diagnostic.render (Mixsyn_check.Diagnostic.errors diags));
      report_telemetry telemetry;
      exit 1
  in
  Cmd.v (Cmd.info "flow" ~doc:"Full top-to-bottom flow: specs to verified layout.")
    Term.(const run $ gain_arg $ ugf_arg $ pm_arg $ cl_arg $ seed_arg $ jobs_arg $ telemetry_arg)

let main =
  let doc = "mixed-signal circuit synthesis and layout (DAC'96 reproduction)" in
  let man =
    [ `S Manpage.s_description;
      `P "One subcommand per stage of the mixed-signal flow:";
      `P "$(b,topo) — rank candidate topologies for a specification set.";
      `P "$(b,size) — size a topology against specifications.";
      `P "$(b,layout) — lay out a midpoint-sized topology, procedural vs KOAN.";
      `P "$(b,lint) — static verification: ERC, layout DRC, constraint audit \
          ($(b,--list-rules) prints the rule catalogue).";
      `P "$(b,feas) — certified interval performance bounds per topology, with \
          spec feasibility verdicts and annotation-drift warnings.";
      `P "$(b,table1) — reproduce the paper's Table 1 synthesis experiment.";
      `P "$(b,floorplan) — substrate-aware floorplan of the testbench chip.";
      `P "$(b,powergrid) — RAIL-style power-grid synthesis (Fig. 3).";
      `P "$(b,wren) — WREN global routing under the three noise disciplines.";
      `P "$(b,hierarchy) — hierarchical design of a two-stage amplification chain.";
      `P "$(b,yield) — Monte-Carlo parametric yield, nominal vs corner-robust.";
      `P "$(b,adc) — high-level A/D converter synthesis.";
      `P "$(b,flow) — full top-to-bottom flow: specs to verified layout.";
      `P "$(b,batch) — run a JSONL manifest of flow jobs with timeouts, retries and \
          checkpoint/resume.";
      `P "$(b,serve) — run the batch layer as a persistent HTTP synthesis service \
          with a bounded work queue, rate limits and graceful drain.";
      `P "An unknown subcommand prints usage on standard error and exits nonzero.";
      `S "PARALLELISM";
      `P "$(b,size), $(b,flow) and $(b,batch) accept $(b,--jobs) $(i,N) to \
          run their evaluation loops on $(i,N) worker domains ($(b,MIXSYN_JOBS) sets the \
          same default from the environment; both reject counts below 1).  Results are \
          bit-identical at any job count.";
      `P "Only the outermost loop runs in parallel: batch jobs, annealing restarts, \
          GA populations and corner sweeps.  Everything inside one of their items \
          runs inline on its domain, and frequency sweeps and layout retries always \
          run inline.";
      `P "Worker domains run with a 4M-word minor heap, because OCaml's stop-the-world \
          minor collections pause every domain: allocation-heavy workers throttle \
          each other, and on such workloads $(b,--jobs) 4 can lose to $(b,--jobs) 1. \
          The $(b,pool.minor_collections) / $(b,pool.major_collections) telemetry \
          counters report the collections observed during parallel regions; if they \
          grow with the job count, reduce allocation before adding workers." ]
  in
  Cmd.group
    (Cmd.info "msyn" ~version:"1.0.0" ~doc ~man)
    [ size_cmd; topo_cmd; layout_cmd; lint_cmd; feas_cmd; table1_cmd; floorplan_cmd;
      powergrid_cmd; wren_cmd; hierarchy_cmd; yield_cmd; adc_cmd; flow_cmd; batch_cmd;
      serve_cmd ]

let () = exit (Cmd.eval main)
