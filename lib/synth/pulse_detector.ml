module Detector = Mixsyn_circuit.Detector
module Netlist = Mixsyn_circuit.Netlist
module Tech = Mixsyn_circuit.Tech

type metrics = Spec.performance

(* Pulse shape (time, volts relative to baseline) of the front-end response
   to the injected charge, either from an AWE model of the linearised
   network or from the transient engine. *)
let pulse_waveform tech config nl op ~use_transient =
  let out = Netlist.find_net nl "out" in
  if use_transient then begin
    let tr = Mixsyn_engine.Tran.solve ~tech nl op ~t_stop:12e-6 ~dt:6e-9 in
    let w = Mixsyn_engine.Tran.waveform tr out in
    let v0 = snd w.(0) in
    Some (Array.map (fun (t, v) -> (t, v -. v0)) w)
  end
  else begin
    match Mixsyn_awe.Awe.of_circuit ~tech nl op ~out ~order:8 with
    | exception Failure _ -> None
    | tf ->
      let tf = Mixsyn_awe.Awe.stable_part tf in
      if Array.length tf.Mixsyn_awe.Awe.poles = 0 then None
      else begin
        let q = config.Detector.q_in in
        (* the AC excitation is a 1 A current source, so the transfer is a
           transimpedance; a charge impulse Q gives v(t) = Q * h(t) *)
        let n = 1200 in
        let t_stop = 12e-6 in
        let w =
          Array.init n (fun k ->
              let t = float_of_int (k + 1) *. t_stop /. float_of_int n in
              (t, q *. Mixsyn_awe.Awe.impulse_response tf t))
        in
        (* validate the reduced model: the pulse must have settled by the
           end of the window, otherwise fall through to the transient *)
        let _, v_peak = Mixsyn_engine.Tran.peak w in
        let _, v_end = w.(n - 1) in
        if Float.abs v_peak > 0.0 && Float.abs v_end < 0.05 *. Float.abs v_peak then Some w
        else None
      end
  end

let swing_of tech (s : Detector.sizing) =
  (* output-stage headroom: each transconductor drops its bias current
     across the stage resistor, gain appetite eats swing *)
  (tech.Tech.vdd -. (s.Detector.a_stage /. 10.0) -. 1.0) /. 2.0

let measure ?(tech = Tech.generic_07um) ?(config = Detector.default_config)
    ?(use_transient = false) s =
  let nl = Detector.build ~config tech s in
  match Mixsyn_engine.Dc.solve ~tech nl with
  | exception Mixsyn_engine.Dc.No_convergence _ -> None
  | op ->
    let waveform =
      (* a sizing whose AWE or transient system is singular has no pulse:
         penalize it like a non-converging DC solve, don't abort the anneal *)
      try
        match pulse_waveform tech config nl op ~use_transient with
        | Some w -> Some w
        | None ->
          (* AWE model rejected: fall back to the transient engine *)
          if use_transient then None
          else pulse_waveform tech config nl op ~use_transient:true
      with Mixsyn_util.Fmat.Singular _ -> None
    in
    (match waveform with
     | None -> None
     | Some w ->
       let t_peak, v_peak = Mixsyn_engine.Tran.peak w in
       if Float.abs v_peak < 1e-9 then None
       else begin
         let threshold = 0.01 *. Float.abs v_peak in
         let t_return = ref t_peak in
         Array.iter (fun (t, v) -> if Float.abs v > threshold then t_return := t) w;
         let counting_rate = 1.0 /. Float.max !t_return 1e-9 in
         let gain_v_per_fc = Float.abs v_peak /. (config.Detector.q_in /. 1e-15) in
         let out = Netlist.find_net nl "out" in
         let freqs =
           Mixsyn_engine.Ac.log_sweep ~decades_from:2.0 ~decades_to:8.0 ~points_per_decade:8
         in
         let noise = Mixsyn_engine.Noise.analyze ~tech nl op ~out ~freqs in
         let vn = noise.Mixsyn_engine.Noise.integrated_rms in
         let enc =
           vn /. (Float.abs v_peak /. config.Detector.q_in)
           /. Mixsyn_util.Units.electron_charge
         in
         Some
           [ ("peaking_time_s", t_peak -. 20e-9);
             ("counting_rate_hz", counting_rate);
             ("enc_electrons", enc);
             ("gain_v_per_fc", gain_v_per_fc);
             ("swing_v", swing_of tech s);
             ("power_w", Detector.estimated_power tech s config);
             ("area_m2", Detector.estimated_area tech s config) ]
       end)

let specs =
  [ Spec.spec "peaking_time_s" (Spec.At_most 1.5e-6);
    Spec.spec "counting_rate_hz" (Spec.At_least 200e3);
    Spec.spec "enc_electrons" (Spec.At_most 1000.0);
    Spec.spec "gain_v_per_fc" (Spec.Between (19.0, 22.0));
    Spec.spec "swing_v" (Spec.At_least 1.0) ]

let objectives = [ Spec.minimize "power_w"; Spec.minimize ~weight:0.3 "area_m2" ]

let manual = Detector.expert_manual_sizing

type synthesis = {
  sizing : Detector.sizing;
  metrics : metrics;
  evaluations : int;
  elapsed_s : float;
  meets : bool;
}

let synthesize ?(tech = Tech.generic_07um) ?(seed = 11) ?(moves = 40) () =
  Mixsyn_util.Telemetry.with_span "detector.synthesize" @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let template = Detector.template () in
  let evaluations = ref 0 in
  (* same memoization as Sizing.size: the annealer and the polish revisit
     clamped vectors, and each revisit used to re-run the full AWE measure *)
  let memo : (float array, metrics option) Mixsyn_util.Eval_cache.t =
    Mixsyn_util.Eval_cache.create "detector.cache"
  in
  let cost_of x =
    let perf =
      Mixsyn_util.Eval_cache.find_or_compute memo
        (Mixsyn_circuit.Template.clamp template x)
        (fun key ->
          incr evaluations;
          measure ~tech (Detector.sizing_of_vector key))
    in
    match perf with
    | None -> 1e7
    | Some perf -> Spec.cost ~specs ~objectives perf
  in
  let rng = Mixsyn_util.Rng.create seed in
  let schedule =
    { Mixsyn_opt.Anneal.t_start = 50.0; t_end = 5e-2; cooling = 0.82; moves_per_stage = moves }
  in
  let problem =
    { Mixsyn_opt.Anneal.initial = Mixsyn_circuit.Template.midpoint template;
      cost = cost_of;
      neighbor =
        (fun rng ~temp01 x ->
          Mixsyn_circuit.Template.perturb template rng ~scale:(0.02 +. (0.25 *. temp01)) x) }
  in
  let outcome = Mixsyn_opt.Anneal.minimize ~schedule ~rng problem in
  let lower = Array.map (fun p -> p.Mixsyn_circuit.Template.lo) template.Mixsyn_circuit.Template.params in
  let upper = Array.map (fun p -> p.Mixsyn_circuit.Template.hi) template.Mixsyn_circuit.Template.params in
  let options = { Mixsyn_opt.Nelder_mead.max_evals = 150; tolerance = 1e-10 } in
  let x, _, _ =
    Mixsyn_opt.Nelder_mead.minimize ~options ~lower ~upper ~f:cost_of
      outcome.Mixsyn_opt.Anneal.best
  in
  let sizing = Detector.sizing_of_vector x in
  (* final verification runs the real transient *)
  let metrics = Option.value (measure ~tech ~use_transient:true sizing) ~default:[] in
  { sizing;
    metrics;
    evaluations = !evaluations;
    elapsed_s = Unix.gettimeofday () -. t0;
    meets = Spec.satisfied specs metrics }

type row = {
  metric : string;
  spec_text : string;
  paper_manual : string;
  paper_synthesis : string;
  ours_manual : string;
  ours_synthesis : string;
}

let fmt_metric name perf =
  match Spec.lookup perf name with
  | None -> "-"
  | Some v ->
    (match name with
     | "peaking_time_s" -> Printf.sprintf "%.2f us" (v *. 1e6)
     | "counting_rate_hz" -> Printf.sprintf "%.0f kHz" (v /. 1e3)
     | "enc_electrons" -> Printf.sprintf "%.0f rms e-" v
     | "gain_v_per_fc" -> Printf.sprintf "%.1f V/fC" v
     | "swing_v" -> Printf.sprintf "+-%.2f V" v
     | "power_w" -> Printf.sprintf "%.1f mW" (v *. 1e3)
     | "area_m2" -> Printf.sprintf "%.2f mm2" (v *. 1e6)
     | _ -> Printf.sprintf "%g" v)

let table1 ?(tech = Tech.generic_07um) ?(seed = 11) ?(moves = 40) () =
  let manual_metrics =
    Option.value (measure ~tech ~use_transient:true manual) ~default:[]
  in
  let synth = synthesize ~tech ~seed ~moves () in
  let row metric spec_text paper_manual paper_synthesis =
    { metric;
      spec_text;
      paper_manual;
      paper_synthesis;
      ours_manual = fmt_metric metric manual_metrics;
      ours_synthesis = fmt_metric metric synth.metrics }
  in
  [ row "peaking_time_s" "< 1.5 us" "1.1 us" "1.1 us";
    row "counting_rate_hz" "> 200 kHz" "200 kHz" "294 kHz";
    row "enc_electrons" "< 1000 rms e-" "750 rms e-" "905 rms e-";
    row "gain_v_per_fc" "20 V/fC" "20 V/fC" "21 V/fC";
    row "swing_v" "> -1..1 V" "-1..1 V" "-1.5..1.5 V";
    row "power_w" "minimal" "40 mW" "7 mW";
    row "area_m2" "minimal" "0.7 mm2" "0.6 mm2" ]

let pp_rows ppf rows =
  Format.fprintf ppf "%-18s | %-14s | %-12s | %-12s | %-12s | %-12s@\n" "metric" "spec"
    "paper manual" "paper synth" "ours manual" "ours synth";
  Format.fprintf ppf "%s@\n" (String.make 96 '-');
  List.iter
    (fun r ->
      Format.fprintf ppf "%-18s | %-14s | %-12s | %-12s | %-12s | %-12s@\n" r.metric
        r.spec_text r.paper_manual r.paper_synthesis r.ours_manual r.ours_synthesis)
    rows
