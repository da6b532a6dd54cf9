module Netlist = Mixsyn_circuit.Netlist
module Fmat = Mixsyn_util.Fmat

type layout = {
  nets : int;
  branch_names : string array;
  branch_tbl : (string, int) Hashtbl.t;
  size : int;
}

let layout_of nl =
  let branches =
    List.filter_map
      (function
        | Netlist.Vsource { v_name; _ } -> Some v_name
        | Netlist.Mos _ | Netlist.Resistor _ | Netlist.Capacitor _
        | Netlist.Isource _ | Netlist.Vccs _ -> None)
      (Netlist.elements nl)
  in
  let nets = Netlist.net_count nl in
  let branch_names = Array.of_list branches in
  let branch_tbl = Hashtbl.create (Array.length branch_names) in
  (* first occurrence wins, matching the old linear scan on duplicates *)
  Array.iteri
    (fun i name ->
      if not (Hashtbl.mem branch_tbl name) then Hashtbl.add branch_tbl name (nets - 1 + i))
    branch_names;
  { nets; branch_names; branch_tbl; size = nets - 1 + Array.length branch_names }

let node_index n = n - 1

let branch_index layout name = Hashtbl.find layout.branch_tbl name

type op = {
  op_layout : layout;
  x : float array;
  mos_evals : (Netlist.mos * Mos_model.eval) list;
  iterations : int;
}

let node_voltage x n = if n = Netlist.gnd then 0.0 else x.(node_index n)

let voltage op n = node_voltage op.x n

let branch_current op ~layout name = op.x.(branch_index layout name)

let linear_capacitors tech nl op =
  let explicit =
    List.filter_map
      (function
        | Netlist.Capacitor { a; b; farads; _ } -> Some (a, b, farads)
        | Netlist.Mos _ | Netlist.Resistor _ | Netlist.Vsource _
        | Netlist.Isource _ | Netlist.Vccs _ -> None)
      (Netlist.elements nl)
  in
  let of_mos (m, (e : Mos_model.eval)) =
    let c = Mos_model.capacitances tech m e.Mos_model.region in
    [ (m.Netlist.gate, m.Netlist.source, c.Mos_model.cgs);
      (m.Netlist.gate, m.Netlist.drain, c.Mos_model.cgd);
      (m.Netlist.gate, m.Netlist.bulk, c.Mos_model.cgb);
      (m.Netlist.drain, m.Netlist.bulk, c.Mos_model.cdb);
      (m.Netlist.source, m.Netlist.bulk, c.Mos_model.csb) ]
  in
  List.filter (fun (a, b, c) -> a <> b && c > 0.0) (explicit @ List.concat_map of_mos op.mos_evals)

(* --- element stamps ------------------------------------------------------ *)

type sink = int -> int -> float -> unit

let stamp_conductance (stamp : sink) a b g =
  let ia = node_index a and ib = node_index b in
  stamp ia ia g;
  stamp ib ib g;
  stamp ia ib (-.g);
  stamp ib ia (-.g)

let stamp_vccs (stamp : sink) ~p ~n ~cp ~cn gm =
  let ip = node_index p and inn = node_index n in
  let icp = node_index cp and icn = node_index cn in
  stamp ip icp gm;
  stamp ip icn (-.gm);
  stamp inn icp (-.gm);
  stamp inn icn gm

let stamp_branch (stamp : sink) ~row p n =
  let ip = node_index p and inn = node_index n in
  stamp ip row 1.0;
  stamp inn row (-1.0);
  stamp row ip 1.0;
  stamp row inn (-1.0)

let stamp_mos (stamp : sink) (m : Netlist.mos) (e : Mos_model.eval) =
  let id = node_index m.Netlist.drain
  and ig = node_index m.Netlist.gate
  and is = node_index m.Netlist.source
  and ib = node_index m.Netlist.bulk in
  let open Mos_model in
  stamp id id e.did_dvd;
  stamp id ig e.did_dvg;
  stamp id is e.did_dvs;
  stamp id ib e.did_dvb;
  stamp is id (-.e.did_dvd);
  stamp is ig (-.e.did_dvg);
  stamp is is (-.e.did_dvs);
  stamp is ib (-.e.did_dvb)

let gmin = 1e-9

let stamp_gmin ws layout g =
  for i = 0 to layout.nets - 2 do
    Fmat.Real.stamp ws i i g
  done

let stamp_newton tech layout ws elements x ~source ~on_mos =
  let v = node_voltage x in
  let stamp = Fmat.Real.stamp ws and rhs = Fmat.Real.rhs ws in
  let branch = ref (layout.nets - 1) in
  let each = function
    | Netlist.Resistor { a; b; ohms; _ } -> stamp_conductance stamp a b (1.0 /. ohms)
    | Netlist.Capacitor _ -> ()
    | Netlist.Vccs { p; n; cp; cn; gm; _ } -> stamp_vccs stamp ~p ~n ~cp ~cn gm
    | Netlist.Isource { p; n; dc; i_wave; _ } ->
      (* a positive value injects current into node p *)
      let value = source dc i_wave in
      rhs (node_index p) value;
      rhs (node_index n) (-.value)
    | Netlist.Vsource { p; n; dc; v_wave; _ } ->
      let row = !branch in
      incr branch;
      stamp_branch stamp ~row p n;
      rhs row (source dc v_wave)
    | Netlist.Mos m ->
      let e =
        Mos_model.evaluate tech m ~vd:(v m.Netlist.drain) ~vg:(v m.Netlist.gate)
          ~vs:(v m.Netlist.source) ~vb:(v m.Netlist.bulk)
      in
      on_mos m e;
      stamp_mos stamp m e;
      (* residual correction: i_lin = ids + J.(v_new - v0), so the constant
         part (ids minus J.v at the expansion point) moves to the RHS *)
      let open Mos_model in
      let linear_at_op =
        (e.did_dvd *. v m.Netlist.drain)
        +. (e.did_dvg *. v m.Netlist.gate)
        +. (e.did_dvs *. v m.Netlist.source)
        +. (e.did_dvb *. v m.Netlist.bulk)
      in
      let const = e.ids -. linear_at_op in
      rhs (node_index m.Netlist.drain) (-.const);
      rhs (node_index m.Netlist.source) const
  in
  List.iter each elements

let damped_update ws x x_new =
  Fmat.Real.factor ws;
  Fmat.Real.solve ws x_new;
  let n = Array.length x in
  let max_delta = ref 0.0 in
  for i = 0 to n - 1 do
    max_delta := Float.max !max_delta (Float.abs (x_new.(i) -. x.(i)))
  done;
  (* cap voltage updates at 0.5 V to avoid square-law overshoot *)
  let limit = 0.5 in
  let scale = if !max_delta > limit then limit /. !max_delta else 1.0 in
  for i = 0 to n - 1 do
    x.(i) <- x.(i) +. (scale *. (x_new.(i) -. x.(i)))
  done;
  !max_delta
