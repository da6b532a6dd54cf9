module Netlist = Mixsyn_circuit.Netlist
module Fmat = Mixsyn_util.Fmat
module FA = Float.Array

type result = {
  times : float array;
  samples : float array array;
  tr_layout : Mna.layout;
}

(* The linearised capacitances with their trapezoidal companion state, kept
   flat: the (net_a, net_b, farads) plates, the companion conductance
   g_eq = 2C/dt, and the voltage across and current through each capacitor
   at the previous accepted timepoint. *)
type caps = {
  plates : (Netlist.net * Netlist.net * float) array;
  geq : FA.t;
  v_prev : FA.t;
  i_prev : FA.t;
}

let across x (a, b, _) = Mna.node_voltage x a -. Mna.node_voltage x b

(* Assemble the Newton system for one trapezoidal step into [ws]: the
   elements in netlist order with sources at their waveform value [source],
   then the companion models, then gmin.  The whole system is re-stamped
   from zero every iteration, in this order, so every float sum matches the
   boxed reference transient in the engine tests bit for bit. *)
let assemble tech layout ws elements caps x ~source =
  Fmat.Real.clear ws;
  Mna.stamp_newton tech layout ws elements x ~source ~on_mos:(fun _ _ -> ());
  (* trapezoidal companion models: g_eq between the plates plus a history
     current source  I_eq = g_eq * v_prev + i_prev *)
  let stamp = Fmat.Real.stamp ws in
  for k = 0 to Array.length caps.plates - 1 do
    let a, b, _ = caps.plates.(k) in
    let g = FA.get caps.geq k in
    Mna.stamp_conductance stamp a b g;
    let ieq = (g *. FA.get caps.v_prev k) +. FA.get caps.i_prev k in
    Fmat.Real.rhs ws (Mna.node_index a) ieq;
    Fmat.Real.rhs ws (Mna.node_index b) (-.ieq)
  done;
  Mna.stamp_gmin ws layout Mna.gmin

let max_newton_iterations = 50

let solve ?(tech = Mixsyn_circuit.Tech.generic_07um) nl op ~t_stop ~dt =
  Mixsyn_util.Telemetry.count "tran.solves";
  let layout = op.Mna.op_layout in
  let n = layout.Mna.size in
  let elements = Netlist.elements nl in
  let cap_list = Array.of_list (Mna.linear_capacitors tech nl op) in
  let caps =
    { plates = cap_list;
      geq = FA.map_from_array (fun (_, _, c) -> 2.0 *. c /. dt) cap_list;
      v_prev = FA.map_from_array (across op.Mna.x) cap_list;
      i_prev = FA.make (Array.length cap_list) 0.0 }
  in
  let steps = int_of_float (Float.ceil (t_stop /. dt)) in
  let times = Array.init (steps + 1) (fun k -> float_of_int k *. dt) in
  let samples = Array.make (steps + 1) [||] in
  samples.(0) <- Array.copy op.Mna.x;
  let x = Array.copy op.Mna.x in
  let x_new = Array.make n 0.0 in
  let iterations = ref 0 and nonconverged = ref 0 in
  (* one flat workspace from this domain's pool serves every Newton
     iteration of every timestep *)
  Fmat.with_real n (fun ws ->
      for k = 1 to steps do
        let time = times.(k) in
        let source dc wave = Netlist.wave_value wave ~dc time in
        (* Newton iterate at this timestep; a step still moving after the
           iteration cap is accepted as is, and counted *)
        let rec iterate count =
          incr iterations;
          assemble tech layout ws elements caps x ~source;
          if Mna.damped_update ws x x_new > 1e-9 then
            if count < max_newton_iterations then iterate (count + 1) else incr nonconverged
        in
        iterate 0;
        (* update companion state *)
        for c = 0 to Array.length cap_list - 1 do
          let v_now = across x caps.plates.(c) in
          let i_now = (FA.get caps.geq c *. (v_now -. FA.get caps.v_prev c)) -. FA.get caps.i_prev c in
          FA.set caps.v_prev c v_now;
          FA.set caps.i_prev c i_now
        done;
        samples.(k) <- Array.copy x
      done);
  Mixsyn_util.Telemetry.add "tran.newton_iterations" !iterations;
  Mixsyn_util.Telemetry.add "tran.newton_nonconverged" !nonconverged;
  { times; samples; tr_layout = layout }

let voltage r k net = Mna.node_voltage r.samples.(k) net

let waveform r net = Array.init (Array.length r.times) (fun k -> (r.times.(k), voltage r k net))

let peak w =
  Array.fold_left
    (fun ((_, best_v) as best) ((_, v) as sample) ->
      if Float.abs v > Float.abs best_v then sample else best)
    w.(0) w

let first_crossing w ~level =
  let n = Array.length w in
  let rec scan i =
    if i >= n then None
    else begin
      let t0, v0 = w.(i - 1) and t1, v1 = w.(i) in
      if (v0 -. level) *. (v1 -. level) <= 0.0 && v0 <> v1 then
        Some (t0 +. ((level -. v0) *. (t1 -. t0) /. (v1 -. v0)))
      else scan (i + 1)
    end
  in
  if n < 2 then None else scan 1

let settling_time w ~final ~tolerance =
  let last_out = ref None in
  Array.iter
    (fun (t, v) -> if Float.abs (v -. final) > tolerance then last_out := Some t)
    w;
  !last_out
