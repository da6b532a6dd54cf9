(* AWE tests against closed-form RC theory and the numeric AC engine. *)

module N = Mixsyn_circuit.Netlist
module Tech = Mixsyn_circuit.Tech
module Awe = Mixsyn_awe.Awe

let tech = Tech.generic_07um

let check_close ?(eps = 1e-6) msg expected actual =
  if Float.abs (expected -. actual) > eps *. Float.max 1e-30 (Float.abs expected) then
    Alcotest.failf "%s: expected %g, got %g" msg expected actual

(* single-pole RC driven by a current source: Z(s) = R/(1+sRC) *)
let rc r c =
  let g = [| [| 1.0 /. r |] |] in
  let cm = [| [| c |] |] in
  let b = [| 1.0 |] in
  (g, cm, b)

let test_single_pole () =
  let g, c, b = rc 1000.0 1e-9 in
  let tf = Awe.of_network ~g ~c ~b ~out:0 ~order:1 in
  Alcotest.(check int) "order" 1 tf.Awe.order;
  let p = tf.Awe.poles.(0) in
  check_close ~eps:1e-6 "pole" (-1.0 /. (1000.0 *. 1e-9)) p.Complex.re;
  check_close ~eps:1e-6 "H(0)" 1000.0 (Awe.magnitude tf 1e-3);
  (* -3 dB at 1/(2 pi RC) *)
  let f3 = 1.0 /. (2.0 *. Float.pi *. 1000.0 *. 1e-9) in
  check_close ~eps:1e-3 "3 dB point" (1000.0 /. sqrt 2.0) (Awe.magnitude tf f3)

let test_moments_match_theory () =
  (* Z(s) = R(1 - sRC + (sRC)^2 ...) so m_k = R(-RC)^k *)
  let g, c, b = rc 2000.0 0.5e-9 in
  let ms = Awe.moments ~g ~c ~b ~out:0 ~count:4 in
  let rc_ = 2000.0 *. 0.5e-9 in
  Array.iteri
    (fun k m -> check_close ~eps:1e-9 (Printf.sprintf "m%d" k) (2000.0 *. ((-.rc_) ** float_of_int k)) m)
    ms

let test_step_response () =
  let g, c, b = rc 1000.0 1e-9 in
  let tf = Awe.of_network ~g ~c ~b ~out:0 ~order:1 in
  (* unit current step into the RC: v(t) = R(1 - exp(-t/RC)) *)
  let tau = 1e-6 in
  check_close ~eps:1e-4 "step at tau" (1000.0 *. (1.0 -. exp (-1.0))) (Awe.step_response tf tau);
  check_close ~eps:1e-3 "step at 5 tau" (1000.0 *. (1.0 -. exp (-5.0))) (Awe.step_response tf (5.0 *. tau))

let test_impulse_response () =
  let g, c, b = rc 1000.0 1e-9 in
  let tf = Awe.of_network ~g ~c ~b ~out:0 ~order:1 in
  (* h(t) = (1/C) exp(-t/RC) *)
  check_close ~eps:1e-4 "impulse at 0+" 1e9 (Awe.impulse_response tf 1e-12);
  check_close ~eps:1e-3 "impulse at tau" (1e9 *. exp (-1.0)) (Awe.impulse_response tf 1e-6)

let test_two_pole_ladder () =
  (* R1-C1-R2-C2 ladder: compare the AWE magnitude with direct AC solve *)
  let g = [| [| (1.0 /. 1000.0) +. (1.0 /. 500.0); -.(1.0 /. 500.0) |];
             [| -.(1.0 /. 500.0); 1.0 /. 500.0 |] |] in
  let c = [| [| 1e-9; 0.0 |]; [| 0.0; 2e-9 |] |] in
  let b = [| 1.0; 0.0 |] in
  let tf = Awe.of_network ~g ~c ~b ~out:1 ~order:2 in
  List.iter
    (fun f ->
      let omega = 2.0 *. Float.pi *. f in
      let a =
        Array.init 2 (fun i ->
            Array.init 2 (fun j -> { Complex.re = g.(i).(j); im = omega *. c.(i).(j) }))
      in
      let x = Mixsyn_util.Matrix.Cplx.solve a [| Complex.one; Complex.zero |] in
      check_close ~eps:1e-4 (Printf.sprintf "ladder f=%g" f) (Complex.norm x.(1)) (Awe.magnitude tf f))
    [ 1.0; 1e4; 1e5; 1e6; 1e7 ]

let test_stable_part_drops_rhp () =
  let tf =
    { Awe.poles = [| { Complex.re = -1.0; im = 0.0 }; { Complex.re = 2.0; im = 0.0 } |];
      residues = [| Complex.one; Complex.one |];
      moments = [||];
      order = 2 }
  in
  let s = Awe.stable_part tf in
  Alcotest.(check int) "one pole kept" 1 (Array.length s.Awe.poles);
  Alcotest.(check bool) "stable" true (Awe.stable s)

let test_dominant_pole () =
  let tf =
    { Awe.poles = [| { Complex.re = -100.0; im = 0.0 }; { Complex.re = -1.0; im = 0.0 } |];
      residues = [| Complex.one; Complex.one |];
      moments = [||];
      order = 2 }
  in
  match Awe.dominant_pole tf with
  | Some p -> check_close "dominant" (-1.0) p.Complex.re
  | None -> Alcotest.fail "expected a dominant pole"

let test_of_circuit_ota () =
  (* order-reduced AWE of the OTA matches the AC sweep *)
  let t = Mixsyn_circuit.Topology.ota_5t in
  let nl = t.Mixsyn_circuit.Template.build tech [| 50e-6; 25e-6; 40e-6; 1e-6; 100e-6; 2e-12 |] in
  let op = Mixsyn_engine.Dc.solve ~tech nl in
  let out = N.find_net nl "out" in
  let tf = Awe.of_circuit ~tech nl op ~out ~order:4 in
  let freqs = [| 1.0; 1e4; 1e6; 1e8 |] in
  let ac = Mixsyn_engine.Ac.solve ~tech nl op ~freqs in
  Array.iteri
    (fun k f ->
      let numeric = Mixsyn_engine.Ac.magnitude ac k out in
      check_close ~eps:0.01 (Printf.sprintf "f=%g" f) numeric (Awe.magnitude tf f))
    freqs

let test_order_reduction_graceful () =
  (* a 1-pole system asked for order 4 must degrade, not explode *)
  let g, c, b = rc 1000.0 1e-9 in
  let ms = Awe.moments ~g ~c ~b ~out:0 ~count:8 in
  let tf = Awe.pade ms ~order:4 in
  if tf.Awe.order > 4 then Alcotest.fail "order grew";
  check_close ~eps:1e-3 "still accurate" 1000.0 (Awe.magnitude tf 1e-3)

(* the boxed recurrence [Awe.moments] ran before its Fmat port: one
   [Matrix.Real.lu_factor] of G and a copying [lu_solve] per moment *)
let oracle_moments ~g ~c ~b ~out ~count =
  let module Real = Mixsyn_util.Matrix.Real in
  let lu = Real.lu_factor g in
  let n = Array.length b in
  let ms = Array.make count 0.0 in
  let x = ref (Real.lu_solve lu b) in
  ms.(0) <- !x.(out);
  for k = 1 to count - 1 do
    let rhs = Array.make n 0.0 in
    for i = 0 to n - 1 do
      let acc = ref 0.0 in
      for j = 0 to n - 1 do
        acc := !acc +. (c.(i).(j) *. !x.(j))
      done;
      rhs.(i) <- -. !acc
    done;
    x := Real.lu_solve lu rhs;
    ms.(k) <- !x.(out)
  done;
  ms

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* the 16 moments of the order-8 model Pulse_detector.measure builds, at
   random in-box detector sizings *)
let prop_moments_match_oracle =
  let module D = Mixsyn_circuit.Detector in
  let template = D.template () in
  QCheck.Test.make ~name:"detector moments are bit-identical to the boxed oracle" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let x = Mixsyn_circuit.Template.random_point template (Mixsyn_util.Rng.create seed) in
      let nl = D.build tech (D.sizing_of_vector x) in
      match Mixsyn_engine.Dc.solve ~tech nl with
      | exception Mixsyn_engine.Dc.No_convergence _ -> QCheck.assume_fail ()
      | op -> (
        let g, c, b = Mixsyn_engine.Ac.build_system tech nl op in
        let b = Array.map (fun (z : Complex.t) -> z.Complex.re) b in
        let out = Mixsyn_engine.Mna.node_index (N.find_net nl "out") in
        match oracle_moments ~g ~c ~b ~out ~count:16 with
        | exception Mixsyn_util.Matrix.Real.Singular _ -> (
          match Awe.moments ~g ~c ~b ~out ~count:16 with
          | exception Mixsyn_util.Fmat.Singular _ -> true
          | _ -> false)
        | want -> Array.for_all2 same_bits want (Awe.moments ~g ~c ~b ~out ~count:16)))

let () =
  Alcotest.run "awe"
    [ ( "exact",
        [ Alcotest.test_case "single pole" `Quick test_single_pole;
          Alcotest.test_case "moments" `Quick test_moments_match_theory;
          Alcotest.test_case "step response" `Quick test_step_response;
          Alcotest.test_case "impulse response" `Quick test_impulse_response;
          Alcotest.test_case "two-pole ladder" `Quick test_two_pole_ladder;
          QCheck_alcotest.to_alcotest prop_moments_match_oracle ] );
      ( "robustness",
        [ Alcotest.test_case "stable part" `Quick test_stable_part_drops_rhp;
          Alcotest.test_case "dominant pole" `Quick test_dominant_pole;
          Alcotest.test_case "ota vs ac" `Quick test_of_circuit_ota;
          Alcotest.test_case "order reduction" `Quick test_order_reduction_graceful ] ) ]
