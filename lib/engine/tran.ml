module Netlist = Mixsyn_circuit.Netlist
module Fmat = Mixsyn_util.Fmat
module FA = Float.Array

type result = {
  times : float array;
  samples : float array array;
  tr_layout : Mna.layout;
}

(* The linearised capacitances with their trapezoidal companion state, kept
   flat: plate rows (-1 for ground), the companion conductance
   g_eq = 2C/dt, and the voltage across and current through each capacitor
   at the previous accepted timepoint. *)
type caps = {
  plate_a : int array;
  plate_b : int array;
  geq : FA.t;
  v_prev : FA.t;
  i_prev : FA.t;
}

let across x caps k =
  let ia = caps.plate_a.(k) and ib = caps.plate_b.(k) in
  (if ia < 0 then 0.0 else x.(ia)) -. if ib < 0 then 0.0 else x.(ib)

(* Assemble the Newton system for one trapezoidal step into [ws]: the
   elements in netlist order, then the companion models, then gmin.  The
   whole system is re-stamped from zero every iteration, in this order, so
   every float sum matches the boxed reference assembly bit for bit. *)
let assemble tech (layout : Mna.layout) ws elements caps x ~time =
  Fmat.Real.clear ws;
  let v net = if net = Netlist.gnd then 0.0 else x.(Mna.node_index net) in
  let stamp = Fmat.Real.stamp ws and rhs = Fmat.Real.rhs ws in
  let branch = ref (layout.Mna.nets - 1) in
  let each = function
    | Netlist.Resistor { a = na; b = nb; ohms; _ } ->
      let g = 1.0 /. ohms in
      let ia = Mna.node_index na and ib = Mna.node_index nb in
      stamp ia ia g;
      stamp ib ib g;
      stamp ia ib (-.g);
      stamp ib ia (-.g)
    | Netlist.Capacitor _ -> ()
    | Netlist.Vccs { p; n = nn; cp; cn; gm; _ } ->
      let ip = Mna.node_index p and inn = Mna.node_index nn in
      let icp = Mna.node_index cp and icn = Mna.node_index cn in
      stamp ip icp gm;
      stamp ip icn (-.gm);
      stamp inn icp (-.gm);
      stamp inn icn gm
    | Netlist.Isource { p; n = nn; dc; i_wave; _ } ->
      let value = Netlist.wave_value i_wave ~dc time in
      rhs (Mna.node_index p) value;
      rhs (Mna.node_index nn) (-.value)
    | Netlist.Vsource { p; n = nn; dc; v_wave; _ } ->
      let row = !branch in
      incr branch;
      let value = Netlist.wave_value v_wave ~dc time in
      let ip = Mna.node_index p and inn = Mna.node_index nn in
      stamp ip row 1.0;
      stamp inn row (-1.0);
      stamp row ip 1.0;
      stamp row inn (-1.0);
      rhs row value
    | Netlist.Mos m ->
      let e =
        Mos_model.evaluate tech m ~vd:(v m.Netlist.drain) ~vg:(v m.Netlist.gate)
          ~vs:(v m.Netlist.source) ~vb:(v m.Netlist.bulk)
      in
      let id = Mna.node_index m.Netlist.drain
      and ig = Mna.node_index m.Netlist.gate
      and is = Mna.node_index m.Netlist.source
      and ib = Mna.node_index m.Netlist.bulk in
      let open Mos_model in
      stamp id id e.did_dvd;
      stamp id ig e.did_dvg;
      stamp id is e.did_dvs;
      stamp id ib e.did_dvb;
      stamp is id (-.e.did_dvd);
      stamp is ig (-.e.did_dvg);
      stamp is is (-.e.did_dvs);
      stamp is ib (-.e.did_dvb);
      let linear_at_op =
        (e.did_dvd *. v m.Netlist.drain)
        +. (e.did_dvg *. v m.Netlist.gate)
        +. (e.did_dvs *. v m.Netlist.source)
        +. (e.did_dvb *. v m.Netlist.bulk)
      in
      let const = e.ids -. linear_at_op in
      rhs id (-.const);
      rhs is const
  in
  Array.iter each elements;
  (* trapezoidal companion models: g_eq between the plates plus a history
     current source  I_eq = g_eq * v_prev + i_prev *)
  for k = 0 to Array.length caps.plate_a - 1 do
    let ia = caps.plate_a.(k) and ib = caps.plate_b.(k) in
    let g = FA.get caps.geq k in
    stamp ia ia g;
    stamp ib ib g;
    stamp ia ib (-.g);
    stamp ib ia (-.g);
    let ieq = (g *. FA.get caps.v_prev k) +. FA.get caps.i_prev k in
    rhs ia ieq;
    rhs ib (-.ieq)
  done;
  (* small gmin for numerical robustness *)
  for i = 0 to layout.Mna.nets - 2 do
    stamp i i 1e-9
  done

let max_newton_iterations = 50

let solve ?(tech = Mixsyn_circuit.Tech.generic_07um) nl op ~t_stop ~dt =
  Mixsyn_util.Telemetry.count "tran.solves";
  let layout = op.Mna.op_layout in
  let n = layout.Mna.size in
  let elements = Array.of_list (Netlist.elements nl) in
  let cap_list =
    Mna.linear_capacitors tech nl op
    |> List.filter (fun (a, b, c) -> a <> b && c > 0.0)
    |> Array.of_list
  in
  let caps =
    { plate_a = Array.map (fun (a, _, _) -> Mna.node_index a) cap_list;
      plate_b = Array.map (fun (_, b, _) -> Mna.node_index b) cap_list;
      geq = FA.map_from_array (fun (_, _, c) -> 2.0 *. c /. dt) cap_list;
      v_prev = FA.make (Array.length cap_list) 0.0;
      i_prev = FA.make (Array.length cap_list) 0.0 }
  in
  for k = 0 to Array.length cap_list - 1 do
    FA.set caps.v_prev k (across op.Mna.x caps k)
  done;
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
        (* Newton iterate at this timestep; a step still moving after the
           iteration cap is accepted as is, and counted *)
        let rec iterate count =
          incr iterations;
          assemble tech layout ws elements caps x ~time;
          Fmat.Real.factor ws;
          Fmat.Real.solve ws x_new;
          let max_delta = ref 0.0 in
          for i = 0 to n - 1 do
            max_delta := Float.max !max_delta (Float.abs (x_new.(i) -. x.(i)))
          done;
          let limit = 0.5 in
          let scale = if !max_delta > limit then limit /. !max_delta else 1.0 in
          for i = 0 to n - 1 do
            x.(i) <- x.(i) +. (scale *. (x_new.(i) -. x.(i)))
          done;
          if !max_delta > 1e-9 then
            if count < max_newton_iterations then iterate (count + 1) else incr nonconverged
        in
        iterate 0;
        (* update companion state *)
        for c = 0 to Array.length cap_list - 1 do
          let v_now = across x caps c in
          let i_now = (FA.get caps.geq c *. (v_now -. FA.get caps.v_prev c)) -. FA.get caps.i_prev c in
          FA.set caps.v_prev c v_now;
          FA.set caps.i_prev c i_now
        done;
        samples.(k) <- Array.copy x
      done);
  Mixsyn_util.Telemetry.add "tran.newton_iterations" !iterations;
  Mixsyn_util.Telemetry.add "tran.newton_nonconverged" !nonconverged;
  { times; samples; tr_layout = layout }

let voltage r k net =
  if net = Netlist.gnd then 0.0 else r.samples.(k).(Mna.node_index net)

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
