module Netlist = Mixsyn_circuit.Netlist
module Mna = Mixsyn_engine.Mna
module Mos_model = Mixsyn_engine.Mos_model

type rational = {
  num : Expr.t;
  den : Expr.t;
}

(* Build the symbolic MNA system: matrix of Expr and symbolic RHS. *)
let build_symbolic nl =
  let layout = Mna.layout_of nl in
  let n = layout.Mna.size in
  let a = Array.make_matrix n n Expr.zero in
  let b = Array.make n Expr.zero in
  let stamp i j e = if i >= 0 && j >= 0 then a.(i).(j) <- Expr.add a.(i).(j) e in
  let rhs i e = if i >= 0 then b.(i) <- Expr.add b.(i) e in
  let idx = Mna.node_index in
  let branch = ref (layout.Mna.nets - 1) in
  let conductance_stamp na nb e =
    stamp (idx na) (idx na) e;
    stamp (idx nb) (idx nb) e;
    stamp (idx na) (idx nb) (Expr.neg e);
    stamp (idx nb) (idx na) (Expr.neg e)
  in
  let vccs_stamp p nn cp cn e =
    stamp (idx p) (idx cp) e;
    stamp (idx p) (idx cn) (Expr.neg e);
    stamp (idx nn) (idx cp) (Expr.neg e);
    stamp (idx nn) (idx cn) e
  in
  let each = function
    | Netlist.Resistor { r_name; a = na; b = nb; _ } ->
      conductance_stamp na nb (Expr.sym ("g_" ^ r_name))
    | Netlist.Capacitor { c_name; a = na; b = nb; _ } ->
      conductance_stamp na nb (Expr.s_times 1 (Expr.sym ("c_" ^ c_name)))
    | Netlist.Vccs { g_name; p; n = nn; cp; cn; _ } ->
      vccs_stamp p nn cp cn (Expr.sym ("gm_" ^ g_name))
    | Netlist.Isource { p; n = nn; ac; _ } ->
      if ac <> 0.0 then begin
        rhs (idx p) (Expr.const ac);
        rhs (idx nn) (Expr.const (-.ac))
      end
    | Netlist.Vsource { ac; p; n = nn; _ } ->
      let row = !branch in
      incr branch;
      stamp (idx p) row Expr.one;
      stamp (idx nn) row (Expr.neg Expr.one);
      stamp row (idx p) Expr.one;
      stamp row (idx nn) (Expr.neg Expr.one);
      if ac <> 0.0 then rhs row (Expr.const ac)
    | Netlist.Mos m ->
      let name = m.Netlist.m_name in
      let d = m.Netlist.drain and g = m.Netlist.gate and s = m.Netlist.source
      and bk = m.Netlist.bulk in
      (* transconductances: current gm*vgs, gmb*vbs into the drain *)
      vccs_stamp d s g s (Expr.sym ("gm_" ^ name));
      vccs_stamp d s bk s (Expr.sym ("gmb_" ^ name));
      conductance_stamp d s (Expr.sym ("gds_" ^ name));
      conductance_stamp g s (Expr.s_times 1 (Expr.sym ("cgs_" ^ name)));
      conductance_stamp g d (Expr.s_times 1 (Expr.sym ("cgd_" ^ name)));
      conductance_stamp d bk (Expr.s_times 1 (Expr.sym ("cdb_" ^ name)));
      conductance_stamp s bk (Expr.s_times 1 (Expr.sym ("csb_" ^ name)))
  in
  List.iter each (Netlist.elements nl);
  (layout, a, b)

let determinant matrix =
  let n = Array.length matrix in
  if n = 0 then Expr.one
  else begin
    let memo : (int, Expr.t) Hashtbl.t = Hashtbl.create 256 in
    (* det of the submatrix using columns [col..n-1] and the rows set in
       [mask]; expansion along column [col] *)
    let rec det col mask =
      if col = n then Expr.one
      else
        match Hashtbl.find_opt memo mask with
        | Some d -> d
        | None ->
          let acc = ref Expr.zero in
          let sign = ref 1.0 in
          for row = 0 to n - 1 do
            if mask land (1 lsl row) <> 0 then begin
              let entry = matrix.(row).(col) in
              if not (Expr.is_zero entry) then begin
                let minor = det (col + 1) (mask lxor (1 lsl row)) in
                let contrib = Expr.mul entry minor in
                acc :=
                  Expr.add !acc (if !sign > 0.0 then contrib else Expr.neg contrib)
              end;
              sign := -. !sign
            end
          done;
          Hashtbl.add memo mask !acc;
          !acc
    in
    det 0 ((1 lsl n) - 1)
  end

let cramer_matrices nl ~out =
  let layout, a, b = build_symbolic nl in
  let j = Mna.node_index out in
  assert (j >= 0 && j < layout.Mna.size);
  (a, Array.mapi (fun i row -> Array.mapi (fun k e -> if k = j then b.(i) else e) row) a)

let transfer nl ~out =
  Mixsyn_util.Telemetry.with_span "symbolic.transfer" @@ fun () ->
  let a, a_out = cramer_matrices nl ~out in
  let den = determinant a in
  let num = determinant a_out in
  { num; den }

(* Every symbol the netlist and operating point define, built once: the
   closure only reads the table, so domains may share it.  The first
   device of a name wins, and for [gm_] a MOS wins over a VCCS. *)
let valuation ?(tech = Mixsyn_circuit.Tech.generic_07um) nl op =
  let table = Hashtbl.create 64 in
  let define kind dev v =
    let name = kind ^ "_" ^ dev in
    if not (Hashtbl.mem table name) then Hashtbl.add table name v
  in
  List.iter
    (fun ((m : Netlist.mos), (e : Mos_model.eval)) ->
      let dev = m.Netlist.m_name in
      let caps = Mos_model.capacitances tech m e.Mos_model.region in
      define "gm" dev (Float.abs e.Mos_model.gm);
      define "gds" dev (Float.abs e.Mos_model.gds);
      define "gmb" dev (Float.abs e.Mos_model.gmb);
      define "cgs" dev caps.Mos_model.cgs;
      define "cgd" dev caps.Mos_model.cgd;
      define "cdb" dev caps.Mos_model.cdb;
      define "csb" dev caps.Mos_model.csb)
    op.Mna.mos_evals;
  List.iter
    (function
      | Netlist.Vccs { g_name; gm; _ } -> define "gm" g_name gm
      | Netlist.Resistor { r_name; ohms; _ } -> define "g" r_name (1.0 /. ohms)
      | Netlist.Capacitor { c_name; farads; _ } -> define "c" c_name farads
      | Netlist.Mos _ | Netlist.Vsource _ | Netlist.Isource _ -> ())
    (Netlist.elements nl);
  fun name -> Hashtbl.find table name

let eval_rational value r sval =
  Complex.div (Expr.eval value r.num sval) (Expr.eval value r.den sval)

let num_den_coeffs value r =
  (Expr.eval_s_coeffs value r.num, Expr.eval_s_coeffs value r.den)

let term_count r = Expr.term_count r.num + Expr.term_count r.den

(* --- certified bounds over symbol ranges ------------------------------- *)

module I = Mixsyn_util.Interval

let symbols r =
  List.sort_uniq compare (Expr.symbols r.num @ Expr.symbols r.den)

let bound_num_den ranges r =
  (Expr.eval_s_coeffs_interval ranges r.num, Expr.eval_s_coeffs_interval ranges r.den)

let coeff_at coeffs k = if k < Array.length coeffs then coeffs.(k) else I.point 0.0

let two_pi = 2.0 *. Float.pi

let bound_dc_gain ranges r =
  let num, den = bound_num_den ranges r in
  I.ediv (coeff_at num 0) (coeff_at den 0)

let bound_gbw ranges r =
  let num, den = bound_num_den ranges r in
  I.ediv (I.abs_ (coeff_at num 0)) (I.mul (I.point two_pi) (I.abs_ (coeff_at den 1)))

let bound_dominant_pole ranges r =
  let _, den = bound_num_den ranges r in
  I.ediv (I.abs_ (coeff_at den 0)) (I.mul (I.point two_pi) (I.abs_ (coeff_at den 1)))

let pp ppf r =
  Format.fprintf ppf "N(s) = %a@\nD(s) = %a" Expr.pp r.num Expr.pp r.den
