module Netlist = Mixsyn_circuit.Netlist
module Template = Mixsyn_circuit.Template
module Measure = Mixsyn_engine.Measure

let sweep_freqs = Mixsyn_engine.Ac.log_sweep ~decades_from:0.0 ~decades_to:9.5 ~points_per_decade:8

let common_metrics tech nl op =
  let vdd_net = Netlist.find_net nl "vdd" in
  let out = Netlist.find_net nl "out" in
  let power = Mixsyn_engine.Dc.power nl op in
  let low, high = Measure.output_swing nl op ~out ~vdd_net in
  ignore tech;
  [ ("power_w", power);
    ("area_m2", Measure.mos_area nl);
    ("swing_low_v", low);
    ("swing_high_v", high) ]

let with_op tech template x f =
  let nl = template.Template.build tech (Template.clamp template x) in
  match Mixsyn_engine.Dc.solve ~tech nl with
  | op -> f nl op
  | exception Mixsyn_engine.Dc.No_convergence _ -> None

let full_simulation ?(tech = Mixsyn_circuit.Tech.generic_07um) template x =
  with_op tech template x (fun nl op ->
      let out = Netlist.find_net nl "out" in
      let ac = Mixsyn_engine.Ac.solve ~tech nl op ~freqs:sweep_freqs in
      let bode = Measure.bode ac ~out in
      let gain = Measure.dc_gain bode in
      let ugf = Measure.unity_gain_freq bode in
      let pm = Measure.phase_margin bode in
      Some
        ([ ("gain_db", 20.0 *. log10 (Float.max gain 1e-12));
           ("ugf_hz", Option.value ugf ~default:0.0);
           ("phase_margin_deg", Option.value pm ~default:0.0) ]
         @ common_metrics tech nl op))

let awe_hybrid ?(tech = Mixsyn_circuit.Tech.generic_07um) template x =
  with_op tech template x (fun nl op ->
      let out = Netlist.find_net nl "out" in
      match Mixsyn_awe.Awe.of_circuit ~tech nl op ~out ~order:4 with
      | exception Failure _ -> None
      (* a sizing whose conductance matrix degenerates has no AWE model:
         penalize the point like a non-converging DC solve, don't crash *)
      | exception Mixsyn_util.Fmat.Singular _ -> None
      | tf ->
        let gain = Mixsyn_awe.Awe.magnitude tf 0.01 in
        (* unity-gain crossing by bisection on the AWE model *)
        let ugf =
          if gain <= 1.0 then 0.0
          else begin
            let rec bisect lo hi count =
              if count = 0 then sqrt (lo *. hi)
              else begin
                let mid = sqrt (lo *. hi) in
                if Mixsyn_awe.Awe.magnitude tf mid > 1.0 then bisect mid hi (count - 1)
                else bisect lo mid (count - 1)
              end
            in
            bisect 0.01 1e10 60
          end
        in
        let pm =
          if ugf <= 0.0 then 0.0
          else begin
            let h = Mixsyn_awe.Awe.eval tf { Complex.re = 0.0; im = 2.0 *. Float.pi *. ugf } in
            let h0 = Mixsyn_awe.Awe.eval tf { Complex.re = 0.0; im = 2.0 *. Float.pi *. 0.01 } in
            (* phase relative to the low-frequency phase, as the unwrapped
               sweep would measure it *)
            let dphi = (Complex.arg h -. Complex.arg h0) *. 180.0 /. Float.pi in
            let dphi = if dphi > 0.0 then dphi -. 360.0 else dphi in
            180.0 +. dphi
          end
        in
        Some
          ([ ("gain_db", 20.0 *. log10 (Float.max gain 1e-12));
             ("ugf_hz", ugf);
             ("phase_margin_deg", pm) ]
           @ common_metrics tech nl op))
