module Netlist = Mixsyn_circuit.Netlist
module Fmat = Mixsyn_util.Fmat

type result = {
  freqs : float array;
  solutions : Complex.t array array;
  ac_layout : Mna.layout;
}

let build_system tech nl op =
  let layout = op.Mna.op_layout in
  let n = layout.Mna.size in
  let g = Array.make_matrix n n 0.0 in
  let c = Array.make_matrix n n 0.0 in
  let b = Array.make n Complex.zero in
  let stamp_g i j v = if i >= 0 && j >= 0 then g.(i).(j) <- g.(i).(j) +. v in
  let stamp_c i j v = if i >= 0 && j >= 0 then c.(i).(j) <- c.(i).(j) +. v in
  let branch = ref (layout.Mna.nets - 1) in
  let each = function
    | Netlist.Resistor { a; b; ohms; _ } -> Mna.stamp_conductance stamp_g a b (1.0 /. ohms)
    | Netlist.Capacitor _ -> ()
      (* stamped below together with the MOS capacitances *)
    | Netlist.Vccs { p; n; cp; cn; gm; _ } -> Mna.stamp_vccs stamp_g ~p ~n ~cp ~cn gm
    | Netlist.Isource { p; n = nn; ac; _ } ->
      if ac <> 0.0 then begin
        let ip = Mna.node_index p and inn = Mna.node_index nn in
        if ip >= 0 then b.(ip) <- Complex.add b.(ip) { Complex.re = ac; im = 0.0 };
        if inn >= 0 then b.(inn) <- Complex.sub b.(inn) { Complex.re = ac; im = 0.0 }
      end
    | Netlist.Vsource { ac; p; n; _ } ->
      let row = !branch in
      incr branch;
      Mna.stamp_branch stamp_g ~row p n;
      if ac <> 0.0 then b.(row) <- { Complex.re = ac; im = 0.0 }
    | Netlist.Mos _ -> ()
  in
  List.iter each (Netlist.elements nl);
  (* MOS small-signal conductances from the operating point *)
  List.iter (fun (m, e) -> Mna.stamp_mos stamp_g m e) op.Mna.mos_evals;
  (* all capacitances, explicit and MOS *)
  List.iter (fun (a, b, farads) -> Mna.stamp_conductance stamp_c a b farads)
    (Mna.linear_capacitors tech nl op);
  (g, c, b)

(* The shared read-only per-sweep state: G and C flattened once into
   bigarray planes, the right-hand side split into unboxed re/im arrays.
   Per frequency point the only matrix work is reloading the workspace
   (re <- G, im <- omega*C, both in place) and an in-place factor/solve in
   this domain's pooled workspace — the sole per-point allocation is the
   solution vector the caller receives. *)
type flat_system = {
  fs_n : int;
  fs_g : Fmat.buf;
  fs_c : Fmat.buf;
  fs_bre : Float.Array.t;
  fs_bim : Float.Array.t;
}

let flatten_system (g, c, (b : Complex.t array)) =
  let n = Array.length b in
  { fs_n = n;
    fs_g = Fmat.flatten g;
    fs_c = Fmat.flatten c;
    fs_bre = Float.Array.init n (fun i -> b.(i).Complex.re);
    fs_bim = Float.Array.init n (fun i -> b.(i).Complex.im) }

let solve ?(tech = Mixsyn_circuit.Tech.generic_07um) nl op ~freqs =
  Mixsyn_util.Telemetry.count "ac.solves";
  Mixsyn_util.Telemetry.add "ac.freq_points" (Array.length freqs);
  let fs = flatten_system (build_system tech nl op) in
  (* each frequency point is an independent in-place solve against the
     shared read-only flat system, all in one pooled complex workspace
     (load/factor/solve in place per point), results in frequency order *)
  let solutions =
    Fmat.with_cplx fs.fs_n (fun ws ->
        Array.map
          (fun f ->
            let omega = 2.0 *. Float.pi *. f in
            Fmat.Cplx.load_ac ws ~g:fs.fs_g ~c:fs.fs_c ~omega;
            Fmat.Cplx.set_rhs ws ~re:fs.fs_bre ~im:fs.fs_bim;
            Fmat.Cplx.factor ws;
            let x = Array.make fs.fs_n Complex.zero in
            Fmat.Cplx.solve ws x;
            x)
          freqs)
  in
  { freqs; solutions; ac_layout = op.Mna.op_layout }

let voltage r k net =
  if net = Netlist.gnd then Complex.zero else r.solutions.(k).(Mna.node_index net)

let magnitude r k net = Complex.norm (voltage r k net)

let phase_deg r k net = Complex.arg (voltage r k net) *. 180.0 /. Float.pi

let log_sweep ~decades_from ~decades_to ~points_per_decade =
  let ppd = float_of_int points_per_decade in
  (* round, don't truncate: a span*ppd product of 2.9999999 from float
     rounding must still yield 3 steps, or the top-decade endpoint is
     silently dropped *)
  let steps = Float.round ((decades_to -. decades_from) *. ppd) in
  let n = int_of_float steps + 1 in
  let exact_span = Float.abs (steps -. ((decades_to -. decades_from) *. ppd)) < 1e-6 in
  let a =
    Array.init n (fun i ->
        (* pin the final point to the requested top decade whenever the
           sweep is meant to land on it, so the endpoint is exact *)
        if exact_span && i = n - 1 then 10.0 ** decades_to
        else 10.0 ** (decades_from +. (float_of_int i /. ppd)))
  in
  assert ((not exact_span) || n = 0 || a.(n - 1) = 10.0 ** decades_to);
  a
