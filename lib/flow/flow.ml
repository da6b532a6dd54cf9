module Spec = Mixsyn_synth.Spec
module Sizing = Mixsyn_synth.Sizing
module Template = Mixsyn_circuit.Template
module Bounds = Mixsyn_check.Bounds
module I = Mixsyn_util.Interval

type stage_log = {
  stage : string;
  detail : string;
  seconds : float;
}

type outcome = {
  template : Template.t;
  sizing : Sizing.result;
  layout : Mixsyn_layout.Cell_flow.report;
  pre_layout : Spec.performance;
  post_layout : Spec.performance;
  meets_post_layout : bool;
  redesigns : int;
  diagnostics : Mixsyn_check.Diagnostic.t list;
  log : stage_log list;
}

(* each stage runs inside a telemetry span; the outcome keeps the legacy
   [stage_log] list so callers see the same shape as before.  Every stage
   boundary doubles as a cancellation point for batch timeouts. *)
let timed log stage f =
  Mixsyn_util.Cancel.guard ();
  let t0 = Unix.gettimeofday () in
  let result, detail = Mixsyn_util.Telemetry.with_span ("flow." ^ stage) f in
  log := { stage; detail; seconds = Unix.gettimeofday () -. t0 } :: !log;
  result

(* layout preference across placement retries: a completely routed layout
   beats any incomplete one; within the same completeness, smaller area
   wins *)
let better_layout (a : Mixsyn_layout.Cell_flow.report) (b : Mixsyn_layout.Cell_flow.report) =
  match (a.Mixsyn_layout.Cell_flow.complete, b.Mixsyn_layout.Cell_flow.complete) with
  | true, false -> a
  | false, true -> b
  | true, true | false, false ->
    if a.Mixsyn_layout.Cell_flow.area_m2 <= b.Mixsyn_layout.Cell_flow.area_m2 then a else b

let measure_extracted tech template params layout_report =
  let nl = template.Template.build tech params in
  let annotated =
    Mixsyn_layout.Extract.annotate nl layout_report.Mixsyn_layout.Cell_flow.parasitics
  in
  match Mixsyn_engine.Dc.solve ~tech annotated with
  | exception Mixsyn_engine.Dc.No_convergence _ -> []
  | op ->
    let out = Mixsyn_circuit.Netlist.find_net annotated "out" in
    let freqs = Mixsyn_synth.Evaluate.sweep_freqs in
    let ac = Mixsyn_engine.Ac.solve ~tech annotated op ~freqs in
    let bode = Mixsyn_engine.Measure.bode ac ~out in
    let gain = Mixsyn_engine.Measure.dc_gain bode in
    [ ("gain_db", 20.0 *. log10 (Float.max gain 1e-12));
      ("ugf_hz", Option.value (Mixsyn_engine.Measure.unity_gain_freq bode) ~default:0.0);
      ("phase_margin_deg",
       Option.value (Mixsyn_engine.Measure.phase_margin bode) ~default:0.0);
      ("power_w", Mixsyn_engine.Dc.power annotated op) ]

(* ---- cross-job sizing stage cache ------------------------------------- *)

(* The sizing stage dominates flow wall time and is deterministic in the
   inputs {!Sizing.cache_key} serializes, so batch manifests with repeated
   spec prefixes (the stratified-sampler shape) can share one result
   across jobs.  The cache is process-global; misses are single-flight, so
   two workers that reach the same key concurrently compute it once.
   Journal byte-identity survives because
   the only result field that is not a pure function of the key —
   [elapsed_s] — never reaches a journal record. *)
let sizing_stage_cache : (string, Sizing.result) Mixsyn_util.Eval_cache.t =
  Mixsyn_util.Eval_cache.create ~size:256 "flow.stage_cache"

let stage_cache_stats () =
  (Mixsyn_util.Eval_cache.hits sizing_stage_cache,
   Mixsyn_util.Eval_cache.misses sizing_stage_cache)

let stage_cache_hit_rate () = Mixsyn_util.Eval_cache.hit_rate sizing_stage_cache

let clear_stage_cache () = Mixsyn_util.Eval_cache.clear sizing_stage_cache

let size_stage ?(tech = Mixsyn_circuit.Tech.generic_07um)
    ?(strategy = Sizing.Awe_annealing) ?schedule ?(stage_cache = true) ?(seed = 1)
    ~context ~specs ~objectives template =
  let compute () =
    Sizing.size ~tech ~seed ?schedule ~context strategy template ~specs ~objectives
  in
  if not stage_cache then compute ()
  else
    let key =
      Sizing.cache_key ~tech ~seed ?schedule ~context strategy template ~specs
        ~objectives
    in
    Mixsyn_util.Eval_cache.find_or_compute sizing_stage_cache key (fun _ -> compute ())

let run ?(tech = Mixsyn_circuit.Tech.generic_07um) ?(seed = 13) ?(max_redesigns = 2)
    ?(candidates = Mixsyn_circuit.Topology.all) ?(checks = true)
    ?(stage_cache = true) ~specs ~objectives ~context () =
  Mixsyn_util.Telemetry.with_span "flow.run" @@ fun () ->
  let log = ref [] in
  (* 0. static pre-flight: certified interval bounds over every candidate's
     parameter box.  A spec that no candidate can provably reach stops the
     flow here — before any annealing, placement or routing work — naming
     the spec and the certified enclosure that excludes it. *)
  let feas_diags =
    if not checks then []
    else
      timed log "feasibility" (fun () ->
          let drift = List.concat_map (Bounds.annotation_drift ~tech) candidates in
          let per_candidate =
            List.map (fun t -> Bounds.infeasible_specs ~tech ~context specs t) candidates
          in
          let hopeless =
            List.filter
              (fun (s : Spec.t) ->
                per_candidate <> []
                && List.for_all
                     (fun inf -> List.exists (fun (s', _) -> s' == s) inf)
                     per_candidate)
              specs
          in
          let errors =
            List.map
              (fun (s : Spec.t) ->
                let hull =
                  List.fold_left
                    (fun acc inf ->
                      match List.find_opt (fun (s', _) -> s' == s) inf with
                      | Some (_, iv) -> I.hull acc iv
                      | None -> acc)
                    I.empty per_candidate
                in
                Mixsyn_check.Diagnostic.error ~rule:"feas.infeasible-spec"
                  ~loc:s.Spec.s_name
                  (Format.asprintf
                     "%s %s is provably unsatisfiable: certified achievable range %a \
                      across all %d candidate topologies"
                     s.Spec.s_name
                     (Bounds.bound_to_string s.Spec.bound)
                     I.pp hull (List.length candidates)))
              hopeless
          in
          let diags = Mixsyn_check.Lint.gate ~stage:"feas" (errors @ drift) in
          ( diags,
            Printf.sprintf "%d infeasible spec(s), %d drift warning(s)"
              (List.length errors) (List.length drift) ))
  in
  let pre_diags = ref feas_diags in
  (* 1. topology selection: interval pruning (hand tables AND certified
     enclosures) then rule-based ranking *)
  let template =
    timed log "topology-selection" (fun () ->
        let ranges = Bounds.metric_ranges ~tech ~context candidates in
        let feasible = Mixsyn_synth.Topo_select.interval_feasible ~ranges specs candidates in
        let pool =
          if feasible <> [] then feasible
          else begin
            (* widening back to the full candidate list keeps the legacy
               never-give-up behaviour, but doing it silently buried real
               specification problems — say so, and count it *)
            Mixsyn_util.Telemetry.count "flow.no-feasible-topology";
            pre_diags :=
              !pre_diags
              @ [ Mixsyn_check.Diagnostic.warning ~rule:"feas.no-feasible-topology"
                    ~loc:"topology-selection"
                    (Printf.sprintf
                       "no candidate topology passes the interval feasibility screen; \
                        continuing with all %d candidates on a best-effort basis"
                       (List.length candidates)) ];
            candidates
          end
        in
        match Mixsyn_synth.Topo_select.rule_based specs pool with
        | [] -> failwith "flow: no candidate topology"
        | best :: _ ->
          ( best.Mixsyn_synth.Topo_select.template,
            Printf.sprintf "%d candidates -> %s" (List.length candidates)
              best.Mixsyn_synth.Topo_select.template.Template.t_name ))
  in
  (* 1b. branch-and-prune contraction of the selected template's parameter
     box: regions where the certified enclosure proves a spec violated are
     cut away before sizing ever samples them.  Sound, so the contracted
     box still contains every spec-satisfying sizing; when nothing prunes,
     the very same template value flows on and the anneal trajectory is
     bit-identical to a run without contraction. *)
  let template =
    timed log "box-contraction" (fun () ->
        let c = Bounds.contract ~tech ~context specs template in
        ( c.Bounds.c_template,
          Printf.sprintf "pruned %d/%d boxes%s" c.Bounds.pruned c.Bounds.explored
            (if c.Bounds.c_infeasible then ", box provably infeasible"
             else if c.Bounds.pruned = 0 then ", box unchanged"
             else "") ))
  in
  (* 2/3. sizing + verification, 4/5. layout + extraction, with redesign *)
  let rec attempt redesigns extra_load =
    Mixsyn_util.Cancel.guard ();
    let context =
      match List.assoc_opt "cl" context with
      | Some cl -> ("cl", cl +. extra_load) :: List.remove_assoc "cl" context
      | None when extra_load > 0.0 ->
        (* no load entry yet: the observed wiring capacitance must still
           reach the next sizing pass rather than being dropped *)
        ("cl", extra_load) :: context
      | None -> context
    in
    (* each redesign sizes against tightened targets so the layout-induced
       degradation lands inside the original specification *)
    let margin = 1.0 +. (0.06 *. float_of_int redesigns) in
    let sizing_specs =
      List.map
        (fun (s : Spec.t) ->
          match s.Spec.bound with
          | Spec.At_least v when v > 0.0 -> { s with Spec.bound = Spec.At_least (v *. margin) }
          | Spec.At_most v when v > 0.0 -> { s with Spec.bound = Spec.At_most (v /. margin) }
          | Spec.At_least _ | Spec.At_most _ | Spec.Between _ -> s)
        specs
    in
    let sizing =
      timed log
        (Printf.sprintf "sizing-pass%d" redesigns)
        (fun () ->
          let r =
            size_stage ~tech ~strategy:Sizing.Awe_annealing ~stage_cache
              ~seed:(seed + redesigns) ~context ~specs:sizing_specs ~objectives template
          in
          (r, Printf.sprintf "cost %.2f, %d evaluations" r.Sizing.cost r.Sizing.evaluations))
    in
    let layout =
      timed log
        (Printf.sprintf "layout-pass%d" redesigns)
        (fun () ->
          let nl = template.Template.build tech sizing.Sizing.params in
          (* retry placement seeds until the router completes, keeping the
             best attempt seen (complete first, then minimum area) rather
             than whatever the last retry produced *)
          let base = seed + (7 * redesigns) in
          let retries = 3 in
          let rec best_layout k best =
            if best.Mixsyn_layout.Cell_flow.complete || k >= retries then best
            else
              best_layout (k + 1)
                (better_layout best (Mixsyn_layout.Cell_flow.koan ~seed:(base + k) nl))
          in
          let r = best_layout 1 (Mixsyn_layout.Cell_flow.koan ~seed:base nl) in
          ( r,
            Printf.sprintf "area %.0f um2, %s" (r.Mixsyn_layout.Cell_flow.area_m2 *. 1e12)
              (if r.Mixsyn_layout.Cell_flow.complete then "routed" else "incomplete") ))
    in
    let post_layout =
      timed log
        (Printf.sprintf "extraction-pass%d" redesigns)
        (fun () ->
          let perf = measure_extracted tech template sizing.Sizing.params layout in
          (perf, Format.asprintf "%a" Spec.pp_performance perf))
    in
    (* post-layout verification only re-checks what extraction changes (the
       AC metrics); DC-only metrics keep their schematic values *)
    let check_specs =
      List.filter
        (fun (s : Spec.t) -> List.mem_assoc s.Spec.s_name post_layout)
        specs
    in
    let ok = Spec.satisfied check_specs post_layout in
    if ok || redesigns >= max_redesigns then
      (sizing, layout, post_layout, ok, redesigns)
    else begin
      (* closing the loop: fold the observed wiring load into the next pass *)
      let wiring_cap =
        Mixsyn_layout.Extract.total_wiring_cap layout.Mixsyn_layout.Cell_flow.parasitics
      in
      Mixsyn_util.Telemetry.count "flow.redesigns";
      attempt (redesigns + 1) (extra_load +. (2.0 *. wiring_cap))
    end
  in
  let sizing, layout, post_layout, ok, redesigns = attempt 0 0.0 in
  (* 6. static verification gates on the finished design: ERC over the
     final netlist, DRC over the mask geometry, constraint audit over
     both.  Any [Error] diagnostic raises {!Mixsyn_check.Lint.Check_failed}
     — a flow that ships a broken design is worse than one that stops. *)
  let summarize stage diags =
    ( diags,
      Printf.sprintf "%s: %d error(s), %d warning(s)" stage
        (Mixsyn_check.Diagnostic.count Mixsyn_check.Diagnostic.Error diags)
        (Mixsyn_check.Diagnostic.count Mixsyn_check.Diagnostic.Warning diags) )
  in
  let diagnostics =
    if not checks then !pre_diags
    else begin
      let nl = template.Template.build tech sizing.Sizing.params in
      let erc =
        timed log "check-erc" (fun () ->
            summarize "erc" (Mixsyn_check.Lint.gate ~stage:"erc" (Mixsyn_check.Erc.check nl)))
      in
      let drc =
        timed log "check-drc" (fun () ->
            summarize "drc"
              (Mixsyn_check.Lint.gate ~stage:"drc"
                 (Mixsyn_check.Drc.check (Mixsyn_layout.Cell_flow.tagged_geometry layout))))
      in
      let audit =
        timed log "check-audit" (fun () ->
            summarize "audit"
              (Mixsyn_check.Lint.gate ~stage:"audit" (Mixsyn_check.Audit.check nl layout)))
      in
      !pre_diags @ erc @ drc @ audit
    end
  in
  { template;
    sizing;
    layout;
    pre_layout = sizing.Sizing.performance;
    post_layout;
    meets_post_layout = ok;
    redesigns;
    diagnostics;
    log = List.rev !log }

let pp_outcome ppf o =
  Format.fprintf ppf "flow: %s, %d redesign(s), post-layout %s, checks: %d warning(s)@\n"
    o.template.Template.t_name o.redesigns
    (if o.meets_post_layout then "MET" else "violated")
    (List.length (Mixsyn_check.Diagnostic.warnings o.diagnostics));
  List.iter
    (fun l -> Format.fprintf ppf "  %-22s %6.2fs  %s@\n" l.stage l.seconds l.detail)
    o.log;
  Format.fprintf ppf "  pre-layout:  %a@\n" Spec.pp_performance o.pre_layout;
  Format.fprintf ppf "  post-layout: %a" Spec.pp_performance o.post_layout
