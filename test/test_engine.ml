(* Engine tests: every analysis checked against closed-form circuit theory. *)

module N = Mixsyn_circuit.Netlist
module Tech = Mixsyn_circuit.Tech
module Mos = Mixsyn_engine.Mos_model
module Dc = Mixsyn_engine.Dc
module Ac = Mixsyn_engine.Ac
module Tran = Mixsyn_engine.Tran
module Noise = Mixsyn_engine.Noise
module Measure = Mixsyn_engine.Measure
module Mna = Mixsyn_engine.Mna

let tech = Tech.generic_07um

let check_close ?(eps = 1e-6) msg expected actual =
  if Float.abs (expected -. actual) > eps *. Float.max 1e-30 (Float.abs expected) then
    Alcotest.failf "%s: expected %g, got %g" msg expected actual

let divider () =
  let c = N.create () in
  let vin = N.new_net ~name:"vin" c and out = N.new_net ~name:"out" c in
  N.add c (N.Vsource { v_name = "v1"; p = vin; n = N.gnd; dc = 2.0; ac = 1.0; v_wave = N.Dc_wave });
  N.add c (N.Resistor { r_name = "r1"; a = vin; b = out; ohms = 1000.0 });
  N.add c (N.Resistor { r_name = "r2"; a = out; b = N.gnd; ohms = 1000.0 });
  N.add c (N.Capacitor { c_name = "c1"; a = out; b = N.gnd; farads = 1e-6 });
  (c, out)

(* --- DC ---------------------------------------------------------------- *)

let test_dc_divider () =
  let c, out = divider () in
  let op = Dc.solve ~tech c in
  check_close "midpoint" 1.0 (Mna.voltage op out)

let test_dc_current_source_into_resistor () =
  let c = N.create () in
  let a = N.new_net c in
  N.add c (N.Isource { i_name = "i1"; p = a; n = N.gnd; dc = 1e-3; ac = 0.0; i_wave = N.Dc_wave });
  N.add c (N.Resistor { r_name = "r1"; a; b = N.gnd; ohms = 2000.0 });
  let op = Dc.solve ~tech c in
  check_close ~eps:1e-5 "ohm's law" 2.0 (Mna.voltage op a)

let test_dc_vccs () =
  (* VCCS of 1 mS sensing 1 V drives 1 mA into 1 kohm: 1 V *)
  let c = N.create () in
  let ctl = N.new_net c and out = N.new_net c in
  N.add c (N.Vsource { v_name = "vc"; p = ctl; n = N.gnd; dc = 1.0; ac = 0.0; v_wave = N.Dc_wave });
  N.add c (N.Vccs { g_name = "g1"; p = N.gnd; n = out; cp = ctl; cn = N.gnd; gm = 1e-3 });
  N.add c (N.Resistor { r_name = "rl"; a = out; b = N.gnd; ohms = 1000.0 });
  let op = Dc.solve ~tech c in
  check_close ~eps:1e-5 "vccs gain" 1.0 (Mna.voltage op out)

let test_dc_power_balance () =
  (* power from the source equals dissipation in the resistors *)
  let c, _ = divider () in
  let op = Dc.solve ~tech c in
  (* 2 V across 2 kohm: 2 mW delivered *)
  check_close ~eps:1e-5 "power" 2e-3 (Dc.power c op)

let test_dc_branch_current () =
  let c, _ = divider () in
  let op = Dc.solve ~tech c in
  let layout = op.Mna.op_layout in
  (* current into the + terminal: the source delivers 1 mA, so -1 mA *)
  check_close ~eps:1e-5 "branch current" (-1e-3) (Mna.branch_current op ~layout "v1")

(* --- MOS model --------------------------------------------------------- *)

let nmos w l = { N.m_name = "m"; drain = 1; gate = 2; source = 0; bulk = 0; w; l; polarity = N.Nmos }
let pmos w l = { (nmos w l) with N.polarity = N.Pmos }

let test_mos_square_law () =
  let m = nmos 10e-6 1e-6 in
  let e = Mos.evaluate tech m ~vd:3.0 ~vg:1.75 ~vs:0.0 ~vb:0.0 in
  (* vov = 1.0, saturation: ids = 0.5*kp*(W/L)*vov^2*(1+lambda*vds) *)
  let lambda = tech.Tech.lambda_factor /. 1e-6 in
  let expected = 0.5 *. tech.Tech.kp_n *. 10.0 *. 1.0 *. (1.0 +. (lambda *. 3.0)) in
  check_close ~eps:0.02 "saturation current" expected e.Mos.ids;
  Alcotest.(check bool) "saturated" true (e.Mos.region = Mos.Saturation)

let test_mos_cutoff () =
  let m = nmos 10e-6 1e-6 in
  let e = Mos.evaluate tech m ~vd:3.0 ~vg:0.2 ~vs:0.0 ~vb:0.0 in
  if e.Mos.ids > 1e-9 then Alcotest.failf "cutoff leaks too much: %g" e.Mos.ids;
  Alcotest.(check bool) "cutoff region" true (e.Mos.region = Mos.Cutoff)

let test_mos_triode () =
  let m = nmos 10e-6 1e-6 in
  let e = Mos.evaluate tech m ~vd:0.1 ~vg:2.75 ~vs:0.0 ~vb:0.0 in
  Alcotest.(check bool) "triode region" true (e.Mos.region = Mos.Triode);
  (* small vds: ids ~ kp W/L vov vds *)
  let expected = tech.Tech.kp_n *. 10.0 *. 2.0 *. 0.1 in
  check_close ~eps:0.1 "triode current" expected e.Mos.ids

let test_mos_pmos_mirror_symmetry () =
  let mn = nmos 10e-6 1e-6 and mp = pmos 10e-6 1e-6 in
  let en = Mos.evaluate tech mn ~vd:2.0 ~vg:1.75 ~vs:0.0 ~vb:0.0 in
  (* mirrored PMOS with kp_p: scale expectation by kp ratio *)
  let ep = Mos.evaluate { tech with Tech.vth0_p = tech.Tech.vth0_n; kp_p = tech.Tech.kp_n }
      mp ~vd:(-2.0) ~vg:(-1.75) ~vs:0.0 ~vb:0.0 in
  check_close ~eps:1e-9 "pmos mirrors nmos" en.Mos.ids (-.ep.Mos.ids)

let test_mos_source_drain_swap () =
  let m = nmos 10e-6 1e-6 in
  let fwd = Mos.evaluate tech m ~vd:1.0 ~vg:2.0 ~vs:0.0 ~vb:0.0 in
  let rev = Mos.evaluate tech m ~vd:0.0 ~vg:2.0 ~vs:1.0 ~vb:0.0 in
  (* exchanging drain and source (same gate and bulk) reverses the current *)
  check_close ~eps:1e-6 "swap antisymmetry" fwd.Mos.ids (-.rev.Mos.ids)

let test_mos_jacobian_consistency () =
  (* finite differences confirm the analytic Jacobian *)
  let m = nmos 20e-6 1.4e-6 in
  let at vd vg vs vb = (Mos.evaluate tech m ~vd ~vg ~vs ~vb).Mos.ids in
  let e = Mos.evaluate tech m ~vd:1.8 ~vg:1.4 ~vs:0.2 ~vb:0.0 in
  let h = 1e-7 in
  let fd f x0 = (f (x0 +. h) -. f (x0 -. h)) /. (2.0 *. h) in
  check_close ~eps:1e-3 "did/dvd" (fd (fun v -> at v 1.4 0.2 0.0) 1.8) e.Mos.did_dvd;
  check_close ~eps:1e-3 "did/dvg" (fd (fun v -> at 1.8 v 0.2 0.0) 1.4) e.Mos.did_dvg;
  check_close ~eps:1e-3 "did/dvs" (fd (fun v -> at 1.8 1.4 v 0.0) 0.2) e.Mos.did_dvs;
  check_close ~eps:1e-3 "did/dvb" (fd (fun v -> at 1.8 1.4 0.2 v) 0.0) e.Mos.did_dvb

let test_mos_diode_bias () =
  let c = N.create () in
  let d = N.new_net c in
  N.add c (N.Isource { i_name = "ib"; p = d; n = N.gnd; dc = 100e-6; ac = 0.0; i_wave = N.Dc_wave });
  N.add c (N.Mos { m_name = "m1"; drain = d; gate = d; source = N.gnd; bulk = N.gnd;
                   w = 7e-6; l = 0.7e-6; polarity = N.Nmos });
  let op = Dc.solve ~tech c in
  let vgs = Mna.voltage op d in
  (* vth + sqrt(2 I / beta) with beta = kp W/L = 1e-3 *)
  check_close ~eps:0.03 "diode vgs" (tech.Tech.vth0_n +. sqrt 0.2) vgs

(* --- AC ------------------------------------------------------------------ *)

let test_ac_rc_pole () =
  let c, out = divider () in
  let op = Dc.solve ~tech c in
  let freqs = Ac.log_sweep ~decades_from:0.0 ~decades_to:5.0 ~points_per_decade:20 in
  let ac = Ac.solve ~tech c op ~freqs in
  let bode = Measure.bode ac ~out in
  check_close ~eps:1e-3 "dc gain" 0.5 (Measure.dc_gain bode);
  (* pole of the divided source: f = 1/(2 pi (R1||R2) C) = 318.3 Hz *)
  (match Measure.bandwidth_3db bode with
   | Some f -> check_close ~eps:0.02 "3 dB" 318.3 f
   | None -> Alcotest.fail "no 3 dB point");
  (* phase at the pole is -45 degrees *)
  let k = ref 0 in
  Array.iteri (fun i p -> if Float.abs (p.Measure.f -. 318.0) < 20.0 && !k = 0 then k := i) bode;
  check_close ~eps:0.05 "pole phase" (-45.0) bode.(!k).Measure.phase

let test_ac_sweep_grid () =
  let freqs = Ac.log_sweep ~decades_from:0.0 ~decades_to:2.0 ~points_per_decade:10 in
  Alcotest.(check int) "grid points" 21 (Array.length freqs);
  check_close "first" 1.0 freqs.(0);
  check_close ~eps:1e-9 "last" 100.0 freqs.(20)

let test_ac_sweep_endpoint () =
  (* regression: (0.3 - 0.1) *. 10. = 1.9999999999999998, which
     int_of_float truncated to 1 — the sweep silently lost its top point *)
  let freqs = Ac.log_sweep ~decades_from:0.1 ~decades_to:0.3 ~points_per_decade:10 in
  Alcotest.(check int) "rounded step count" 3 (Array.length freqs);
  if freqs.(2) <> 10.0 ** 0.3 then
    Alcotest.failf "endpoint %.17g <> 10^0.3 = %.17g" freqs.(2) (10.0 ** 0.3);
  (* the endpoint is pinned exactly (not within an eps) for every sweep
     that lands on its top decade *)
  List.iter
    (fun (a, b, ppd, n) ->
      let f = Ac.log_sweep ~decades_from:a ~decades_to:b ~points_per_decade:ppd in
      Alcotest.(check int) "point count" n (Array.length f);
      if f.(n - 1) <> 10.0 ** b then
        Alcotest.failf "sweep %g..%g ppd %d: last %.17g <> %.17g" a b ppd f.(n - 1)
          (10.0 ** b))
    [ (0.0, 9.0, 300, 2701); (0.0, 9.5, 8, 77); (0.0, 0.5, 2, 2); (2.0, 8.0, 8, 49) ];
  (* a fractional span still rounds to the nearest step count *)
  let frac = Ac.log_sweep ~decades_from:0.3 ~decades_to:6.0 ~points_per_decade:8 in
  Alcotest.(check int) "45.6 steps round to 46" 47 (Array.length frac)

let test_ac_flat_matches_boxed () =
  (* the flat per-domain kernel must reproduce the boxed Matrix.Cplx path
     bit-for-bit on real amplifier systems *)
  let module Cplx = Mixsyn_util.Matrix.Cplx in
  List.iter
    (fun t ->
      let nl = t.Mixsyn_circuit.Template.build tech (Mixsyn_circuit.Template.midpoint t) in
      let op = Dc.solve ~tech nl in
      let freqs = Ac.log_sweep ~decades_from:0.0 ~decades_to:9.0 ~points_per_decade:4 in
      let ac = Ac.solve ~tech nl op ~freqs in
      let g, c, b = Ac.build_system tech nl op in
      let n = Array.length b in
      Array.iteri
        (fun k f ->
          let omega = 2.0 *. Float.pi *. f in
          let a =
            Array.init n (fun i ->
                Array.init n (fun j ->
                    { Complex.re = g.(i).(j); im = omega *. c.(i).(j) }))
          in
          let x = Cplx.solve a b in
          Array.iteri
            (fun i (v : Complex.t) ->
              if v <> ac.Ac.solutions.(k).(i) then
                Alcotest.failf "%s: solution differs at point %d unknown %d"
                  t.Mixsyn_circuit.Template.t_name k i)
            x)
        freqs)
    [ Mixsyn_circuit.Topology.ota_5t; Mixsyn_circuit.Topology.miller_ota ]

let test_ac_ota_gain_formula () =
  (* 5T OTA gain ~ gm1/(gds2+gds4): check the simulator against the
     small-signal parameters it itself reports *)
  let t = Mixsyn_circuit.Topology.ota_5t in
  let nl = t.Mixsyn_circuit.Template.build tech [| 50e-6; 25e-6; 40e-6; 1e-6; 100e-6; 2e-12 |] in
  let op = Dc.solve ~tech nl in
  let find name =
    List.find (fun ((m : N.mos), _) -> m.N.m_name = name) op.Mna.mos_evals |> snd
  in
  let gm1 = (find "m2").Mos.gm in
  let gds2 = (find "m2").Mos.gds and gds4 = (find "m4").Mos.gds in
  let out = N.find_net nl "out" in
  let freqs = [| 1.0 |] in
  let ac = Ac.solve ~tech nl op ~freqs in
  let gain = Ac.magnitude ac 0 out in
  check_close ~eps:0.1 "gm/gds gain" (gm1 /. (gds2 +. gds4)) gain

(* the AC kernel's allocation contract: a dense 2701-point sweep of the
   Miller OTA stays under 400 minor words per point (the boxed kernel took
   ~3700).  [Ac.solve] runs inline, so this domain's counter sees every
   word it allocates. *)
let test_ac_sweep_allocation () =
  let nl =
    Mixsyn_circuit.Topology.miller_ota.Mixsyn_circuit.Template.build tech
      [| 60e-6; 20e-6; 30e-6; 60e-6; 45e-6; 1e-6; 50e-6; 3e-12; 5e-12 |]
  in
  let op = Dc.solve ~tech nl in
  let freqs = Ac.log_sweep ~decades_from:0.0 ~decades_to:9.0 ~points_per_decade:300 in
  Alcotest.(check int) "points" 2701 (Array.length freqs);
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Ac.solve ~tech nl op ~freqs));
  let words = (Gc.minor_words () -. w0) /. float_of_int (Array.length freqs) in
  Printf.printf "ac sweep: %.0f minor words/point\n" words;
  if words > 400.0 then Alcotest.failf "%.0f minor words/point, cap 400" words

(* --- transient -------------------------------------------------------------- *)

(* a 1 V step into 1 kohm / 100 nF, and 2 V charging 1 uF through 100 ohm *)
let rc_step () =
  let c = N.create () in
  let vin = N.new_net c and out = N.new_net ~name:"out" c in
  N.add c (N.Vsource { v_name = "v1"; p = vin; n = N.gnd; dc = 0.0; ac = 0.0;
                       v_wave = N.Pulse { v0 = 0.0; v1 = 1.0; delay = 1e-5; rise = 1e-7; width = 1.0 } });
  N.add c (N.Resistor { r_name = "r1"; a = vin; b = out; ohms = 1000.0 });
  N.add c (N.Capacitor { c_name = "c1"; a = out; b = N.gnd; farads = 1e-7 });
  (c, out)

let rc_charge () =
  let c = N.create () in
  let vin = N.new_net c and out = N.new_net c in
  N.add c (N.Vsource { v_name = "v1"; p = vin; n = N.gnd; dc = 0.0; ac = 0.0;
                       v_wave = N.Pulse { v0 = 0.0; v1 = 2.0; delay = 0.0; rise = 1e-9; width = 1.0 } });
  N.add c (N.Resistor { r_name = "r1"; a = vin; b = out; ohms = 100.0 });
  N.add c (N.Capacitor { c_name = "c1"; a = out; b = N.gnd; farads = 1e-6 });
  (c, out)

let test_tran_rc_step () =
  let c, out = rc_step () in
  let op = Dc.solve ~tech c in
  let tr = Tran.solve ~tech c op ~t_stop:1e-3 ~dt:1e-6 in
  let w = Tran.waveform tr out in
  (match Tran.first_crossing w ~level:(1.0 -. exp (-1.0)) with
   | Some t -> check_close ~eps:0.02 "tau" 1.1e-4 t
   | None -> Alcotest.fail "no crossing");
  (* final value *)
  let _, v_final = w.(Array.length w - 1) in
  check_close ~eps:1e-3 "settles to 1" 1.0 v_final

let test_tran_settling_time () =
  let w = Array.init 100 (fun i -> (float_of_int i, 1.0 -. exp (-.float_of_int i /. 10.0))) in
  match Tran.settling_time w ~final:1.0 ~tolerance:0.02 with
  | Some t -> if t < 30.0 || t > 50.0 then Alcotest.failf "settling %g out of range" t
  | None -> Alcotest.fail "expected settling time"

let test_tran_energy_conservation () =
  (* charging a capacitor through a resistor: the capacitor ends with CV^2/2 *)
  let c, out = rc_charge () in
  let op = Dc.solve ~tech c in
  let tr = Tran.solve ~tech c op ~t_stop:2e-3 ~dt:2e-6 in
  let w = Tran.waveform tr out in
  let _, v_final = w.(Array.length w - 1) in
  check_close ~eps:1e-2 "fully charged" 2.0 v_final

let test_tran_singular_raises () =
  (* two parallel voltage sources with different values: a source loop,
     so every step's system is truly singular.  The operating point is
     built by hand because gmin keeps floating nodes solvable and
     Dc.solve reports a singular system as No_convergence. *)
  let c = N.create () in
  let a = N.new_net c in
  N.add c (N.Vsource { v_name = "v1"; p = a; n = N.gnd; dc = 1.0; ac = 0.0; v_wave = N.Dc_wave });
  N.add c (N.Vsource { v_name = "v2"; p = a; n = N.gnd; dc = 2.0; ac = 0.0; v_wave = N.Dc_wave });
  let layout = Mna.layout_of c in
  let op =
    { Mna.op_layout = layout; x = Array.make layout.Mna.size 0.0; mos_evals = []; iterations = 0 }
  in
  match Tran.solve ~tech c op ~t_stop:1e-6 ~dt:1e-7 with
  | exception Mixsyn_util.Matrix.Real.Singular _ -> ()
  | _ -> Alcotest.fail "expected Matrix.Real.Singular from a source loop"

let test_tran_telemetry () =
  let module T = Mixsyn_util.Telemetry in
  let before name = T.counter name in
  let solves = before "tran.solves"
  and iterations = before "tran.newton_iterations"
  and nonconverged = before "tran.newton_nonconverged" in
  let c, _ = rc_step () in
  let op = Dc.solve ~tech c in
  let tr = Tran.solve ~tech c op ~t_stop:1e-4 ~dt:1e-6 in
  let steps = Array.length tr.Tran.times - 1 in
  Alcotest.(check int) "one solve" (solves + 1) (T.counter "tran.solves");
  (* a linear circuit converges within two Newton iterations every step *)
  let ran = T.counter "tran.newton_iterations" - iterations in
  if ran < steps || ran > 2 * steps then
    Alcotest.failf "%d Newton iterations over %d steps" ran steps;
  Alcotest.(check int) "no step hit the cap" nonconverged (T.counter "tran.newton_nonconverged")

(* --- transient bit-identity oracle --------------------------------------- *)

(* The boxed transient the engine ran before its Fmat port: a fresh
   [float array array] assembly and a copying [Matrix.Real.solve] on every
   Newton iteration.  [Tran.solve] must reproduce it bit for bit. *)
module Oracle_tran = struct
  module Real = Mixsyn_util.Matrix.Real

  let assemble nl (layout : Mna.layout) x ~time ~caps ~geq =
    let n = layout.Mna.size in
    let a = Real.create n n in
    let b = Array.make n 0.0 in
    let v net = if net = N.gnd then 0.0 else x.(Mna.node_index net) in
    let stamp i j g = if i >= 0 && j >= 0 then a.(i).(j) <- a.(i).(j) +. g in
    let rhs i g = if i >= 0 then b.(i) <- b.(i) +. g in
    let branch = ref (layout.Mna.nets - 1) in
    let each = function
      | N.Resistor { a = na; b = nb; ohms; _ } ->
        let g = 1.0 /. ohms in
        let ia = Mna.node_index na and ib = Mna.node_index nb in
        stamp ia ia g;
        stamp ib ib g;
        stamp ia ib (-.g);
        stamp ib ia (-.g)
      | N.Capacitor _ -> ()
      | N.Vccs { p; n = nn; cp; cn; gm; _ } ->
        let ip = Mna.node_index p and inn = Mna.node_index nn in
        let icp = Mna.node_index cp and icn = Mna.node_index cn in
        stamp ip icp gm;
        stamp ip icn (-.gm);
        stamp inn icp (-.gm);
        stamp inn icn gm
      | N.Isource { p; n = nn; dc; i_wave; _ } ->
        let value = N.wave_value i_wave ~dc time in
        rhs (Mna.node_index p) value;
        rhs (Mna.node_index nn) (-.value)
      | N.Vsource { p; n = nn; dc; v_wave; _ } ->
        let row = !branch in
        incr branch;
        let value = N.wave_value v_wave ~dc time in
        let ip = Mna.node_index p and inn = Mna.node_index nn in
        stamp ip row 1.0;
        stamp inn row (-1.0);
        stamp row ip 1.0;
        stamp row inn (-1.0);
        rhs row value
      | N.Mos m ->
        let e =
          Mos.evaluate tech m ~vd:(v m.N.drain) ~vg:(v m.N.gate) ~vs:(v m.N.source)
            ~vb:(v m.N.bulk)
        in
        let id = Mna.node_index m.N.drain
        and ig = Mna.node_index m.N.gate
        and is = Mna.node_index m.N.source
        and ib = Mna.node_index m.N.bulk in
        let open Mos in
        stamp id id e.did_dvd;
        stamp id ig e.did_dvg;
        stamp id is e.did_dvs;
        stamp id ib e.did_dvb;
        stamp is id (-.e.did_dvd);
        stamp is ig (-.e.did_dvg);
        stamp is is (-.e.did_dvs);
        stamp is ib (-.e.did_dvb);
        let linear_at_op =
          (e.did_dvd *. v m.N.drain)
          +. (e.did_dvg *. v m.N.gate)
          +. (e.did_dvs *. v m.N.source)
          +. (e.did_dvb *. v m.N.bulk)
        in
        let const = e.ids -. linear_at_op in
        rhs id (-.const);
        rhs is const
    in
    List.iter each (N.elements nl);
    Array.iteri
      (fun k (na, nb, _c, v_prev, i_prev) ->
        let ia = Mna.node_index na and ib = Mna.node_index nb in
        let g = geq.(k) in
        stamp ia ia g;
        stamp ib ib g;
        stamp ia ib (-.g);
        stamp ib ia (-.g);
        let ieq = (g *. v_prev) +. i_prev in
        rhs ia ieq;
        rhs ib (-.ieq))
      caps;
    for i = 0 to layout.Mna.nets - 2 do
      a.(i).(i) <- a.(i).(i) +. 1e-9
    done;
    (a, b)

  let solve nl op ~t_stop ~dt =
    let layout = op.Mna.op_layout in
    let n = layout.Mna.size in
    let cap_list =
      Mna.linear_capacitors tech nl op |> List.filter (fun (a, b, c) -> a <> b && c > 0.0)
    in
    let v_of x net = if net = N.gnd then 0.0 else x.(Mna.node_index net) in
    let caps =
      Array.of_list
        (List.map (fun (a, b, c) -> (a, b, c, v_of op.Mna.x a -. v_of op.Mna.x b, 0.0)) cap_list)
    in
    let geq = Array.map (fun (_, _, c, _, _) -> 2.0 *. c /. dt) caps in
    let steps = int_of_float (Float.ceil (t_stop /. dt)) in
    let times = Array.init (steps + 1) (fun k -> float_of_int k *. dt) in
    let samples = Array.make (steps + 1) [||] in
    samples.(0) <- Array.copy op.Mna.x;
    let x = Array.copy op.Mna.x in
    for k = 1 to steps do
      let time = times.(k) in
      let rec iterate count =
        let a, b = assemble nl layout x ~time ~caps ~geq in
        let x_new = Real.solve a b in
        let max_delta = ref 0.0 in
        for i = 0 to n - 1 do
          max_delta := Float.max !max_delta (Float.abs (x_new.(i) -. x.(i)))
        done;
        let limit = 0.5 in
        let scale = if !max_delta > limit then limit /. !max_delta else 1.0 in
        for i = 0 to n - 1 do
          x.(i) <- x.(i) +. (scale *. (x_new.(i) -. x.(i)))
        done;
        if !max_delta > 1e-9 && count < 50 then iterate (count + 1)
      in
      iterate 0;
      Array.iteri
        (fun i (na, nb, c, v_prev, i_prev) ->
          let v_now = v_of x na -. v_of x nb in
          let i_now = (geq.(i) *. (v_now -. v_prev)) -. i_prev in
          caps.(i) <- (na, nb, c, v_now, i_now))
        caps;
      samples.(k) <- Array.copy x
    done;
    (times, samples)
end

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* [Tran.solve] and the oracle agree on every sample bit for bit, or both
   find the system singular *)
let tran_matches_oracle nl op ~t_stop ~dt =
  match Oracle_tran.solve nl op ~t_stop ~dt with
  | exception Mixsyn_util.Matrix.Real.Singular _ -> (
    match Tran.solve ~tech nl op ~t_stop ~dt with
    | exception Mixsyn_util.Fmat.Singular _ -> true
    | _ -> false)
  | times, samples ->
    let tr = Tran.solve ~tech nl op ~t_stop ~dt in
    Array.length tr.Tran.samples = Array.length samples
    && Array.for_all2 same_bits tr.Tran.times times
    && Array.for_all2 (Array.for_all2 same_bits) tr.Tran.samples samples

let test_tran_rc_matches_oracle () =
  List.iter
    (fun (name, (c, _), t_stop, dt) ->
      let op = Dc.solve ~tech c in
      if not (tran_matches_oracle c op ~t_stop ~dt) then
        Alcotest.failf "%s: Tran.solve differs from the boxed oracle" name)
    [ ("rc step", rc_step (), 1e-3, 1e-6); ("rc charge", rc_charge (), 2e-3, 2e-6) ]

(* the Table 1 front end at random in-box sizings, over the window
   Pulse_detector.measure simulates *)
let prop_tran_detector_matches_oracle =
  let module D = Mixsyn_circuit.Detector in
  let template = D.template () in
  QCheck.Test.make ~name:"detector transient is bit-identical to the boxed oracle" ~count:10
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let x = Mixsyn_circuit.Template.random_point template (Mixsyn_util.Rng.create seed) in
      let nl = D.build tech (D.sizing_of_vector x) in
      match Dc.solve ~tech nl with
      | exception Dc.No_convergence _ -> QCheck.assume_fail ()
      | op -> tran_matches_oracle nl op ~t_stop:12e-6 ~dt:6e-9)

(* --- noise ------------------------------------------------------------------ *)

let test_noise_resistor_4ktr () =
  let c, out = divider () in
  let op = Dc.solve ~tech c in
  let freqs = [| 10.0 |] in
  let r = Noise.analyze ~tech c op ~out ~freqs in
  (* two 1k resistors in parallel seen from out: 500 ohm -> 4kT*500 *)
  let expected = 4.0 *. Mixsyn_util.Units.boltzmann *. tech.Tech.temp *. 500.0 in
  check_close ~eps:0.01 "thermal floor" expected r.Noise.points.(0).Noise.total_psd

let test_noise_ktc () =
  (* integrated noise of an RC is kT/C regardless of R *)
  let total r_ohms =
    let c = N.create () in
    let out = N.new_net ~name:"out" c in
    N.add c (N.Resistor { r_name = "r1"; a = out; b = N.gnd; ohms = r_ohms });
    N.add c (N.Capacitor { c_name = "c1"; a = out; b = N.gnd; farads = 1e-9 });
    let op = Dc.solve ~tech c in
    let freqs = Ac.log_sweep ~decades_from:0.0 ~decades_to:9.0 ~points_per_decade:16 in
    let r = Noise.analyze ~tech c op ~out ~freqs in
    r.Noise.integrated_rms
  in
  let expected = sqrt (Mixsyn_util.Units.boltzmann *. tech.Tech.temp /. 1e-9) in
  check_close ~eps:0.05 "kT/C at 10k" expected (total 1e4);
  check_close ~eps:0.05 "kT/C at 1M" expected (total 1e6)

let test_noise_flat_matches_boxed () =
  (* the adjoint sweep in one flat workspace must reproduce a boxed
     Matrix.Cplx solve of the transposed system bit-for-bit: every
     contribution, every total and the integrated noise *)
  let module Cplx = Mixsyn_util.Matrix.Cplx in
  List.iter
    (fun t ->
      let nl = t.Mixsyn_circuit.Template.build tech (Mixsyn_circuit.Template.midpoint t) in
      let op = Dc.solve ~tech nl in
      let out = N.find_net nl "out" in
      let freqs = Ac.log_sweep ~decades_from:0.0 ~decades_to:9.0 ~points_per_decade:4 in
      let got = Noise.analyze ~tech nl op ~out ~freqs in
      let g, c, _ = Ac.build_system tech nl op in
      let n = Array.length g in
      let e_out =
        Array.init n (fun i ->
            if i = Mna.node_index out then { Complex.re = 1.0; im = 0.0 } else Complex.zero)
      in
      let sources =
        List.filter_map
          (function
            | N.Resistor { r_name; a; b; ohms } ->
              let psd _f = 4.0 *. Mixsyn_util.Units.boltzmann *. tech.Tech.temp /. ohms in
              Some (r_name, `Thermal, a, b, psd)
            | N.Mos _ | N.Capacitor _ | N.Vsource _ | N.Isource _ | N.Vccs _ -> None)
          (N.elements nl)
        @ List.concat_map
            (fun ((m : N.mos), (e : Mos.eval)) ->
              let gm = Float.abs e.Mos.gm in
              [ (m.N.m_name, `Thermal, m.N.drain, m.N.source,
                 fun _f -> Mos.thermal_noise_psd tech ~gm);
                (m.N.m_name, `Flicker, m.N.drain, m.N.source,
                 fun f -> Mos.flicker_noise_psd tech m ~gm ~freq:f) ])
            op.Mna.mos_evals
      in
      let expected =
        Array.map
          (fun freq ->
            let omega = 2.0 *. Float.pi *. freq in
            let at =
              Array.init n (fun i ->
                  Array.init n (fun j -> { Complex.re = g.(j).(i); im = omega *. c.(j).(i) }))
            in
            let y = Cplx.solve at e_out in
            let v net = if net = N.gnd then Complex.zero else y.(Mna.node_index net) in
            let contributions =
              List.map
                (fun (source_name, kind, a, b, psd_fn) ->
                  let h = Complex.norm (Complex.sub (v a) (v b)) in
                  { Noise.source_name; kind; psd = h *. h *. psd_fn freq })
                sources
            in
            let total_psd =
              List.fold_left (fun acc (k : Noise.contribution) -> acc +. k.Noise.psd) 0.0
                contributions
            in
            { Noise.freq; total_psd; contributions })
          freqs
      in
      Array.iteri
        (fun k (p : Noise.point) ->
          if p <> got.Noise.points.(k) then
            Alcotest.failf "%s: noise point %d differs" t.Mixsyn_circuit.Template.t_name k)
        expected;
      let series = Array.map (fun (p : Noise.point) -> (p.Noise.freq, p.Noise.total_psd)) expected in
      let rms = sqrt (Noise.integrate series) in
      if rms <> got.Noise.integrated_rms then
        Alcotest.failf "%s: integrated noise differs" t.Mixsyn_circuit.Template.t_name)
    [ Mixsyn_circuit.Topology.ota_5t; Mixsyn_circuit.Topology.miller_ota ]

let test_noise_flicker_corner () =
  (* flicker PSD falls as 1/f *)
  let m = nmos 10e-6 1e-6 in
  let p1 = Mos.flicker_noise_psd tech m ~gm:1e-3 ~freq:100.0 in
  let p2 = Mos.flicker_noise_psd tech m ~gm:1e-3 ~freq:1000.0 in
  check_close ~eps:1e-9 "1/f" 10.0 (p1 /. p2)

(* --- measure ----------------------------------------------------------------- *)

let test_measure_swing () =
  let t = Mixsyn_circuit.Topology.ota_5t in
  let nl = t.Mixsyn_circuit.Template.build tech [| 50e-6; 25e-6; 40e-6; 1e-6; 100e-6; 2e-12 |] in
  let op = Dc.solve ~tech nl in
  let out = N.find_net nl "out" and vdd = N.find_net nl "vdd" in
  let low, high = Measure.output_swing nl op ~out ~vdd_net:vdd in
  if low >= high then Alcotest.fail "inverted swing";
  if high > tech.Tech.vdd then Alcotest.fail "swing above the rail"

let test_measure_ugf_pm () =
  (* all topologies at midpoint must produce a finite, positive UGF *)
  List.iter
    (fun t ->
      let nl = t.Mixsyn_circuit.Template.build tech (Mixsyn_circuit.Template.midpoint t) in
      match Dc.solve ~tech nl with
      | exception Dc.No_convergence _ -> Alcotest.failf "%s: no DC" t.Mixsyn_circuit.Template.t_name
      | op ->
        let out = N.find_net nl "out" in
        let freqs = Ac.log_sweep ~decades_from:0.0 ~decades_to:9.5 ~points_per_decade:8 in
        let ac = Ac.solve ~tech nl op ~freqs in
        let bode = Measure.bode ac ~out in
        (match Measure.unity_gain_freq bode with
         | Some f when f > 0.0 -> ()
         | Some _ | None -> Alcotest.failf "%s: no unity-gain crossing" t.Mixsyn_circuit.Template.t_name))
    Mixsyn_circuit.Topology.all

(* --- cross-analysis properties ------------------------------------------- *)

(* random RC ladder driven by a voltage source *)
let random_ladder seed n =
  let rng = Mixsyn_util.Rng.create seed in
  let c = N.create () in
  let vin = N.new_net ~name:"vin" c in
  N.add c (N.Vsource { v_name = "v1"; p = vin; n = N.gnd; dc = 1.0; ac = 1.0; v_wave = N.Dc_wave });
  let prev = ref vin in
  let last = ref vin in
  for k = 1 to n do
    let node = N.new_net ~name:(Printf.sprintf "l%d" k) c in
    N.add c (N.Resistor { r_name = Printf.sprintf "r%d" k; a = !prev; b = node;
                          ohms = Mixsyn_util.Rng.uniform rng 100.0 10e3 });
    N.add c (N.Capacitor { c_name = Printf.sprintf "c%d" k; a = node; b = N.gnd;
                           farads = Mixsyn_util.Rng.uniform rng 1e-12 1e-9 });
    (* occasional shunt resistor so the DC value is nontrivial *)
    if Mixsyn_util.Rng.bool rng then
      N.add c (N.Resistor { r_name = Printf.sprintf "rs%d" k; a = node; b = N.gnd;
                            ohms = Mixsyn_util.Rng.uniform rng 1e3 100e3 });
    prev := node;
    last := node
  done;
  (c, !last)

let prop_ac_dc_consistency =
  QCheck.Test.make ~name:"AC at ~0 Hz equals the DC solution" ~count:60
    QCheck.(pair (int_range 0 5000) (int_range 1 6))
    (fun (seed, n) ->
      let c, out = random_ladder seed n in
      let op = Dc.solve ~tech c in
      let v_dc = Mna.voltage op out in
      let ac = Ac.solve ~tech c op ~freqs:[| 1e-3 |] in
      let v_ac = Ac.magnitude ac 0 out in
      (* the DC solve biases every node with gmin = 1e-9 S; across up to
         6 x 10 kohm of ladder that shifts the bias by ~1e-4 at most *)
      Float.abs (v_dc -. v_ac) < 1e-4 +. (1e-4 *. Float.abs v_dc))

let prop_transient_settles_to_dc =
  QCheck.Test.make ~name:"transient settles to the DC solution" ~count:20
    QCheck.(pair (int_range 0 5000) (int_range 1 4))
    (fun (seed, n) ->
      let c, out = random_ladder seed n in
      let op = Dc.solve ~tech c in
      (* time constants max ~ 10k * 1n = 1e-5; simulate 10x that *)
      let tr = Tran.solve ~tech c op ~t_stop:1e-4 ~dt:2e-7 in
      let w = Tran.waveform tr out in
      let _, v_final = w.(Array.length w - 1) in
      Float.abs (v_final -. Mna.voltage op out) < 1e-6 +. (1e-4 *. Float.abs v_final))

(* --- dc sweep ------------------------------------------------------------ *)

let test_dc_sweep_divider () =
  let c, out = divider () in
  let values = [| 0.0; 1.0; 2.0; 4.0 |] in
  let results = Dc.sweep ~tech c ~source:"v1" ~values in
  Array.iter
    (fun (v, op) -> check_close ~eps:1e-6 "half the source" (v /. 2.0) (Mna.voltage op out))
    results

let test_dc_sweep_unknown_source () =
  let c, _ = divider () in
  match Dc.sweep ~tech c ~source:"nonexistent" ~values:[| 1.0 |] with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found"

let test_dc_sweep_comparator_transfer () =
  (* sweeping the + input of the open-loop comparator walks the output
     from one rail toward the other *)
  let t = Mixsyn_circuit.Topology.comparator in
  let nl = t.Mixsyn_circuit.Template.build tech (Mixsyn_circuit.Template.midpoint t) in
  let out = N.find_net nl "out" in
  let vcm = Mixsyn_circuit.Topology.common_mode_fraction *. tech.Tech.vdd in
  let values = Array.init 9 (fun i -> vcm -. 0.02 +. (0.005 *. float_of_int i)) in
  let results = Dc.sweep ~tech nl ~source:"vip" ~values in
  let v_low = Mna.voltage (snd results.(0)) out in
  let v_high = Mna.voltage (snd results.(8)) out in
  if Float.abs (v_high -. v_low) < 1.0 then
    Alcotest.failf "comparator transfer too shallow: %.3f -> %.3f" v_low v_high

let () =
  Alcotest.run "engine"
    [ ( "dc",
        [ Alcotest.test_case "divider" `Quick test_dc_divider;
          Alcotest.test_case "current source" `Quick test_dc_current_source_into_resistor;
          Alcotest.test_case "vccs" `Quick test_dc_vccs;
          Alcotest.test_case "power balance" `Quick test_dc_power_balance;
          Alcotest.test_case "branch current" `Quick test_dc_branch_current;
          Alcotest.test_case "mos diode bias" `Quick test_mos_diode_bias ] );
      ( "mos-model",
        [ Alcotest.test_case "square law" `Quick test_mos_square_law;
          Alcotest.test_case "cutoff" `Quick test_mos_cutoff;
          Alcotest.test_case "triode" `Quick test_mos_triode;
          Alcotest.test_case "pmos mirror symmetry" `Quick test_mos_pmos_mirror_symmetry;
          Alcotest.test_case "source/drain swap" `Quick test_mos_source_drain_swap;
          Alcotest.test_case "jacobian consistency" `Quick test_mos_jacobian_consistency ] );
      ( "ac",
        [ Alcotest.test_case "rc pole" `Quick test_ac_rc_pole;
          Alcotest.test_case "sweep grid" `Quick test_ac_sweep_grid;
          Alcotest.test_case "sweep endpoint exact" `Quick test_ac_sweep_endpoint;
          Alcotest.test_case "flat kernel matches boxed" `Quick test_ac_flat_matches_boxed;
          Alcotest.test_case "ota gain formula" `Quick test_ac_ota_gain_formula;
          Alcotest.test_case "sweep allocation cap" `Quick test_ac_sweep_allocation ] );
      ( "transient",
        [ Alcotest.test_case "rc step" `Quick test_tran_rc_step;
          Alcotest.test_case "settling time" `Quick test_tran_settling_time;
          Alcotest.test_case "charge completion" `Quick test_tran_energy_conservation;
          Alcotest.test_case "singular system raises" `Quick test_tran_singular_raises;
          Alcotest.test_case "telemetry counters" `Quick test_tran_telemetry;
          Alcotest.test_case "rc matches boxed oracle" `Quick test_tran_rc_matches_oracle;
          QCheck_alcotest.to_alcotest prop_tran_detector_matches_oracle ] );
      ( "noise",
        [ Alcotest.test_case "4kTR floor" `Quick test_noise_resistor_4ktr;
          Alcotest.test_case "kT/C invariant" `Quick test_noise_ktc;
          Alcotest.test_case "flicker 1/f" `Quick test_noise_flicker_corner;
          Alcotest.test_case "flat kernel matches boxed" `Quick test_noise_flat_matches_boxed ] );
      ( "cross-analysis",
        [ QCheck_alcotest.to_alcotest prop_ac_dc_consistency;
          QCheck_alcotest.to_alcotest prop_transient_settles_to_dc ] );
      ( "dc-sweep",
        [ Alcotest.test_case "divider" `Quick test_dc_sweep_divider;
          Alcotest.test_case "unknown source" `Quick test_dc_sweep_unknown_source;
          Alcotest.test_case "comparator transfer" `Quick test_dc_sweep_comparator_transfer ] );
      ( "measure",
        [ Alcotest.test_case "swing" `Quick test_measure_swing;
          Alcotest.test_case "ugf on all topologies" `Quick test_measure_ugf_pm ] ) ]
