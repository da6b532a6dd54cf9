module Netlist = Mixsyn_circuit.Netlist

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

let voltage op n = if n = Netlist.gnd then 0.0 else op.x.(node_index n)

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
  explicit @ List.concat_map of_mos op.mos_evals
