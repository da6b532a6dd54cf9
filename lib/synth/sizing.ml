module Template = Mixsyn_circuit.Template

type strategy =
  | Design_plan of Design_plan.t
  | Equation_annealing
  | Simulation_annealing
  | Awe_annealing

type result = {
  strategy_name : string;
  params : float array;
  performance : Spec.performance;
  predicted : Spec.performance;
  cost : float;
  evaluations : int;
  elapsed_s : float;
  meets_specs : bool;
}

let strategy_name = function
  | Design_plan p -> p.Design_plan.plan_name
  | Equation_annealing -> "equation-annealing"
  | Simulation_annealing -> "simulation-annealing"
  | Awe_annealing -> "awe-annealing"

let evaluator_of_strategy ?(tech = Mixsyn_circuit.Tech.generic_07um) strategy template x =
  match strategy with
  | Design_plan _ | Equation_annealing -> Equations.evaluate ~tech template x
  | Simulation_annealing -> Evaluate.full_simulation ~tech template x
  | Awe_annealing -> Evaluate.awe_hybrid ~tech template x

let failed_cost = 1e7

(* Canonical content-address of one sizing run, for the cross-job stage
   cache: every input that can change the result is serialized with the
   journal's canonical JSON printer, in fixed field order.  Spec, context
   and objective *order* is preserved deliberately — the cost function
   folds violations in list order, so reordered specs are a different
   float computation and must be a different key.  [size] is
   deterministic in these inputs (seeded annealer, deterministic
   evaluators), which is what makes sharing the result across jobs
   byte-identity-safe. *)
let cache_key ?(tech = Mixsyn_circuit.Tech.generic_07um) ?(seed = 1) ?schedule
    ?(context = []) ?(guardband = 1.0) strategy template ~specs ~objectives =
  let open Mixsyn_util.Json in
  let bound = function
    | Spec.At_least v -> Arr [ Str "at-least"; Num v ]
    | Spec.At_most v -> Arr [ Str "at-most"; Num v ]
    | Spec.Between (a, b) -> Arr [ Str "between"; Num a; Num b ]
  in
  let spec (s : Spec.t) = Arr [ Str s.Spec.s_name; bound s.Spec.bound; Num s.Spec.weight ] in
  let objective (o : Spec.objective) =
    Arr
      [ Str o.Spec.o_name;
        Str (match o.Spec.direction with `Minimize -> "min" | `Maximize -> "max");
        Num o.Spec.o_weight ]
  in
  (* the template argument may be box-contracted or pinned relative to the
     registry topology of the same name, so the actual parameter boxes are
     part of the key, not just the name *)
  let param (p : Template.param) =
    Arr [ Str p.Template.p_name; Num p.lo; Num p.hi; Bool p.log_scale ]
  in
  let tech_json (t : Mixsyn_circuit.Tech.t) =
    Mixsyn_circuit.Tech.(
      Arr
        [ Str t.tech_name; Num t.vdd; Num t.vth0_n; Num t.vth0_p; Num t.kp_n;
          Num t.kp_p; Num t.lambda_factor; Num t.gamma; Num t.phi; Num t.cox;
          Num t.cov; Num t.cj; Num t.cjsw; Num t.kf; Num t.l_min; Num t.w_min;
          Num t.l_diff; Num t.temp ])
  in
  let schedule_json =
    match schedule with
    | None -> Null
    | Some s ->
      Mixsyn_opt.Anneal.(
        Arr [ Num s.t_start; Num s.t_end; Num s.cooling; Num (float_of_int s.moves_per_stage) ])
  in
  to_string
    (Obj
       [ ("strategy", Str (strategy_name strategy));
         ("template", Str template.Template.t_name);
         ("params", Arr (Array.to_list (Array.map param template.Template.params)));
         ("tech", tech_json tech);
         ("seed", Num (float_of_int seed));
         ("schedule", schedule_json);
         ("guardband", Num guardband);
         ("context", Arr (List.map (fun (k, v) -> Arr [ Str k; Num v ]) context));
         ("specs", Arr (List.map spec specs));
         ("objectives", Arr (List.map objective objectives)) ])

let size ?(tech = Mixsyn_circuit.Tech.generic_07um) ?(seed = 1) ?schedule ?(context = [])
    ?(guardband = 1.0) ?(cache = true) strategy template ~specs ~objectives =
  Mixsyn_util.Telemetry.with_span "sizing.size" @@ fun () ->
  let t0 = Unix.gettimeofday () in
  (* the optimizer chases tightened bounds; verification keeps the originals *)
  let optimizer_specs =
    if guardband = 1.0 then specs
    else
      List.map
        (fun (s : Spec.t) ->
          match s.Spec.bound with
          | Spec.At_least v when v > 0.0 -> { s with Spec.bound = Spec.At_least (v *. guardband) }
          | Spec.At_most v when v > 0.0 -> { s with Spec.bound = Spec.At_most (v /. guardband) }
          | Spec.At_least _ | Spec.At_most _ | Spec.Between _ -> s)
        specs
  in
  let template =
    let pinnable =
      List.filter
        (fun (name, _) ->
          Array.exists (fun p -> p.Template.p_name = name) template.Template.params)
        context
    in
    Template.with_fixed template pinnable
  in
  let evaluations = ref 0 in
  let raw_evaluator = evaluator_of_strategy ~tech strategy template in
  (* memoize on the clamped vector: every evaluator clamps before building
     the netlist, so two proposals that clamp to the same point are the
     same evaluation.  The annealer re-visits points at the bounds and the
     Nelder-Mead polish re-scores the annealed optimum; with the cache
     those revisits are free and the results stay bit-identical (the
     evaluators are deterministic). *)
  let memo : (float array, Spec.performance option) Mixsyn_util.Eval_cache.t =
    Mixsyn_util.Eval_cache.create "sizing.cache"
  in
  (* [count] marks optimizer-loop evaluations; the final prediction read-out
     is free, exactly as in the uncached path *)
  let evaluator ~count x =
    let key = Template.clamp template x in
    let compute key =
      if count then incr evaluations;
      raw_evaluator key
    in
    if cache then Mixsyn_util.Eval_cache.find_or_compute memo key compute
    else compute key
  in
  let cost_of x =
    match evaluator ~count:true x with
    | None -> failed_cost
    | Some perf -> Spec.cost ~specs:optimizer_specs ~objectives perf
  in
  let params =
    match strategy with
    | Design_plan plan ->
      let x, _env = Design_plan.execute ~tech ~context plan specs in
      Template.clamp template x
    | Equation_annealing | Simulation_annealing | Awe_annealing ->
      let rng = Mixsyn_util.Rng.create seed in
      let schedule =
        match schedule with
        | Some s -> s
        | None ->
          (* simulation in the loop is ~10^3 x the cost of an equation
             evaluation, so budget fewer moves (exactly FRIDGE's dilemma) *)
          (match strategy with
           | Equation_annealing -> { Mixsyn_opt.Anneal.t_start = 50.0; t_end = 1e-3; cooling = 0.90; moves_per_stage = 120 }
           | Simulation_annealing | Awe_annealing | Design_plan _ ->
             { Mixsyn_opt.Anneal.t_start = 50.0; t_end = 1e-2; cooling = 0.85; moves_per_stage = 25 })
      in
      let problem =
        { Mixsyn_opt.Anneal.initial = Template.midpoint template;
          cost = cost_of;
          neighbor =
            (fun rng ~temp01 x ->
              Template.perturb template rng ~scale:(0.02 +. (0.3 *. temp01)) x) }
      in
      let outcome =
        Mixsyn_util.Telemetry.with_span "sizing.anneal" (fun () ->
            Mixsyn_opt.Anneal.minimize ~schedule ~rng problem)
      in
      (* Nelder-Mead polish of the annealed optimum *)
      let lower = Array.map (fun p -> p.Template.lo) template.Template.params in
      let upper = Array.map (fun p -> p.Template.hi) template.Template.params in
      let options = { Mixsyn_opt.Nelder_mead.max_evals = 300; tolerance = 1e-12 } in
      let x, _, _ =
        Mixsyn_util.Telemetry.with_span "sizing.polish" (fun () ->
            Mixsyn_opt.Nelder_mead.minimize ~options ~lower ~upper ~f:cost_of
              outcome.Mixsyn_opt.Anneal.best)
      in
      x
  in
  let predicted = Option.value (evaluator ~count:false params) ~default:[] in
  (* design verification: always score the result with the full simulator *)
  let performance =
    Mixsyn_util.Telemetry.with_span "sizing.verification" (fun () ->
        Option.value (Evaluate.full_simulation ~tech template params) ~default:[])
  in
  Mixsyn_util.Telemetry.add "sizing.evaluator_invocations" !evaluations;
  let elapsed_s = Unix.gettimeofday () -. t0 in
  { strategy_name = strategy_name strategy;
    params;
    performance;
    predicted;
    cost = Spec.cost ~specs ~objectives performance;
    evaluations = !evaluations;
    elapsed_s;
    meets_specs = Spec.satisfied specs performance }

let pp_result ppf r =
  Format.fprintf ppf "%s: cost=%.3f evals=%d time=%.3fs specs=%s@\n  %a"
    r.strategy_name r.cost r.evaluations r.elapsed_s
    (if r.meets_specs then "MET" else "violated")
    Spec.pp_performance r.performance
