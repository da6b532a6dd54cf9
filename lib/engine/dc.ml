module Netlist = Mixsyn_circuit.Netlist
module Fmat = Mixsyn_util.Fmat

exception No_convergence of string

let max_iterations = 200

(* the continuation ladders, as (source scale, gmin) rungs *)
let source_steps = List.map (fun a -> (a, Mna.gmin)) [ 0.1; 0.25; 0.4; 0.55; 0.7; 0.85; 1.0 ]
let gmin_steps = List.map (fun g -> (1.0, g)) [ 1e-3; 1e-5; 1e-7; Mna.gmin ]

(* Assemble the Newton-linearised MNA system A x_new = b around the current
   guess [x] into the reusable flat workspace [ws].  Independent sources are
   scaled by [alpha] for continuation. *)
let assemble tech layout ws elements x ~alpha ~gmin =
  Fmat.Real.clear ws;
  let evals = ref [] in
  Mna.stamp_newton tech layout ws elements x
    ~source:(fun dc _ -> alpha *. dc)
    ~on_mos:(fun m e -> evals := (m, e) :: !evals);
  Mna.stamp_gmin ws layout gmin;
  List.rev !evals

let newton tech layout ws elements ~x0 ~alpha ~gmin =
  let x = Array.copy x0 in
  let x_new = Array.make layout.Mna.size 0.0 in
  (* the result, and the number of iterations begun *)
  let rec loop iter =
    if iter > max_iterations then (None, iter)
    else begin
      let evals = assemble tech layout ws elements x ~alpha ~gmin in
      match Mna.damped_update ws x x_new with
      | exception Fmat.Singular _ -> (None, iter)
      | max_delta ->
        if max_delta < 1e-9 then (Some (x, evals, iter), iter) else loop (iter + 1)
    end
  in
  let r, iterations_run = loop 1 in
  Mixsyn_util.Telemetry.add "dc.newton_iterations" iterations_run;
  (match r with None -> Mixsyn_util.Telemetry.count "dc.newton_failures" | Some _ -> ());
  r

let solve ?(tech = Mixsyn_circuit.Tech.generic_07um) nl =
  Mixsyn_util.Telemetry.count "dc.solves";
  let layout = Mna.layout_of nl in
  (* one flat workspace from this domain's pool serves every Newton
     iteration and every continuation step of this solve *)
  Fmat.with_real layout.Mna.size @@ fun ws ->
  let newton = newton tech layout ws (Netlist.elements nl) in
  let zeros = Array.make layout.Mna.size 0.0 in
  (* each rung warm-starts from the one before; the last rung's solve is
     the answer *)
  let rec continuation x0 = function
    | [] -> None
    | (alpha, gmin) :: rest -> (
      match newton ~x0 ~alpha ~gmin with
      | Some ((x, _, _) as r) -> if rest = [] then Some r else continuation x rest
      | None -> None)
  in
  match
    match newton ~x0:zeros ~alpha:1.0 ~gmin:Mna.gmin with
    | Some _ as r -> r
    | None -> (
      Mixsyn_util.Telemetry.count "dc.source_stepping_runs";
      match continuation zeros source_steps with
      | Some _ as r -> r
      | None ->
        (* gmin stepping as a last resort *)
        Mixsyn_util.Telemetry.count "dc.gmin_stepping_runs";
        continuation zeros gmin_steps)
  with
  | Some (x, evals, iterations) -> { Mna.op_layout = layout; x; mos_evals = evals; iterations }
  | None ->
    Mixsyn_util.Telemetry.count "dc.no_convergence";
    raise (No_convergence "dc: newton, source and gmin stepping all failed")

let power nl op =
  let layout = op.Mna.op_layout in
  let total = ref 0.0 in
  let v net = Mna.voltage op net in
  let each = function
    | Netlist.Vsource { v_name; dc; _ } ->
      (* branch current flows into the + terminal; delivered power = -dc*i *)
      let i = Mna.branch_current op ~layout v_name in
      total := !total +. (-.dc *. i)
    | Netlist.Isource { p; n; dc; _ } ->
      (* source pushes dc into p: delivered power = dc * (v_p - v_n) *)
      total := !total +. (dc *. (v p -. v n))
    | Netlist.Mos _ | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Vccs _ -> ()
  in
  List.iter each (Netlist.elements nl);
  !total


let sweep ?(tech = Mixsyn_circuit.Tech.generic_07um) nl ~source ~values =
  if not (Hashtbl.mem (Mna.layout_of nl).Mna.branch_tbl source) then raise Not_found;
  Array.map
    (fun v ->
      let nl' =
        Netlist.map_elements nl (function
          | Netlist.Vsource { v_name; p; n; dc = _; ac; v_wave } when v_name = source ->
            Netlist.Vsource { v_name; p; n; dc = v; ac; v_wave }
          | e -> e)
      in
      (v, solve ~tech nl'))
    values
