module Fmat = Mixsyn_util.Fmat
module Poly = Mixsyn_util.Poly

type tf = {
  poles : Complex.t array;
  residues : Complex.t array;
  moments : float array;
  order : int;
}

let moments ~g ~c ~b ~out ~count =
  let n = Array.length b in
  let ms = Array.make count 0.0 in
  (* factor G once, then one back-substitution per moment:
     x_0 = G^-1 b,  x_k = -G^-1 C x_(k-1) *)
  Fmat.with_real n (fun ws ->
      Fmat.Real.load ws g;
      Fmat.Real.factor ws;
      let x = Array.make n 0.0 and rhs = Array.make n 0.0 in
      Fmat.Real.set_rhs ws b;
      Fmat.Real.solve ws x;
      ms.(0) <- x.(out);
      for k = 1 to count - 1 do
        for i = 0 to n - 1 do
          let acc = ref 0.0 in
          for j = 0 to n - 1 do
            acc := !acc +. (c.(i).(j) *. x.(j))
          done;
          rhs.(i) <- -. !acc
        done;
        Fmat.Real.set_rhs ws rhs;
        Fmat.Real.solve ws x;
        ms.(k) <- x.(out)
      done);
  ms

(* Padé at one order; raises Fmat.Singular when the Hankel system degenerates. *)
let try_pade ms q =
  (* frequency scaling: sigma ~ |m0/m1| keeps the Hankel system conditioned *)
  let sigma =
    if Float.abs ms.(1) > 1e-300 && Float.abs ms.(0) > 1e-300 then Float.abs (ms.(0) /. ms.(1))
    else 1.0
  in
  let mu = Array.mapi (fun k m -> m *. (sigma ** float_of_int k)) ms in
  (* solve for denominator D(s) = 1 + d1 s + ... + dq s^q:
     for k = q..2q-1:  mu_k + sum_{i=1..q} d_i mu_{k-i} = 0 *)
  let d = Array.make q 0.0 in
  Fmat.with_real q (fun ws ->
      let rhs = Array.make q 0.0 in
      for row = 0 to q - 1 do
        let k = q + row in
        for i = 1 to q do
          Fmat.Real.set ws row (i - 1) mu.(k - i)
        done;
        rhs.(row) <- -.mu.(k)
      done;
      Fmat.Real.set_rhs ws rhs;
      Fmat.Real.factor ws;
      Fmat.Real.solve ws d);
  let denom = Array.make (q + 1) 0.0 in
  denom.(0) <- 1.0;
  for i = 1 to q do
    denom.(i) <- d.(i - 1)
  done;
  (* numerator n_j = sum_{i=0..j} d_i mu_{j-i}, j = 0..q-1 *)
  let numer =
    Array.init q (fun j ->
        let acc = ref 0.0 in
        for i = 0 to j do
          acc := !acc +. (denom.(i) *. mu.(j - i))
        done;
        !acc)
  in
  let poles_scaled = Poly.roots denom in
  (* residues k_i = N(p_i) / D'(p_i) *)
  let deriv = Poly.derivative denom in
  let residues_scaled =
    Array.map
      (fun p ->
        Complex.div (Poly.eval_complex numer p) (Poly.eval_complex deriv p))
      poles_scaled
  in
  (* validate in the scaled domain: the approximant must reproduce the
     moments it was built from (the Hankel system is notoriously close to
     singular, and LU can return garbage without raising) *)
  let reproduced j =
    (* mu_j = - sum k_i / p_i^(j+1) *)
    let acc = ref Complex.zero in
    Array.iteri
      (fun i p ->
        let rec pow acc k = if k = 0 then acc else pow (Complex.mul acc p) (k - 1) in
        acc := Complex.add !acc (Complex.div residues_scaled.(i) (pow Complex.one (j + 1))))
      poles_scaled;
    -. !acc.Complex.re
  in
  let ok = ref true in
  for j = 0 to min 3 ((2 * q) - 1) do
    let want = mu.(j) in
    let got = reproduced j in
    let scale_ref = Float.max (Float.abs want) (Float.abs mu.(0)) in
    if Float.abs (got -. want) > 1e-4 *. Float.max scale_ref 1e-30 then ok := false
  done;
  if not !ok then raise (Fmat.Singular q);
  (* undo scaling: s_hat = s / sigma -> p = p_hat * sigma, k = k_hat * sigma *)
  let sigma_c = { Complex.re = sigma; im = 0.0 } in
  let poles = Array.map (fun p -> Complex.mul p sigma_c) poles_scaled in
  let residues = Array.map (fun k -> Complex.mul k sigma_c) residues_scaled in
  { poles; residues; moments = Array.copy ms; order = q }

let pade ms ~order =
  Mixsyn_util.Telemetry.count "awe.pade_calls";
  let max_q = Array.length ms / 2 in
  let fallback q =
    Mixsyn_util.Telemetry.count "awe.order_fallbacks";
    q - 1
  in
  let rec attempt q =
    if q < 1 then begin
      Mixsyn_util.Telemetry.count "awe.pade_failures";
      failwith "awe: no Pade approximant at any order"
    end
    else
      match try_pade ms q with
      | tf ->
        let finite =
          Array.for_all
            (fun (p : Complex.t) -> Float.is_finite p.Complex.re && Float.is_finite p.Complex.im)
            tf.poles
        in
        if finite then tf else attempt (fallback q)
      | exception Fmat.Singular _ -> attempt (fallback q)
  in
  attempt (min order max_q)

let of_network ~g ~c ~b ~out ~order =
  let ms = moments ~g ~c ~b ~out ~count:(2 * order) in
  pade ms ~order

let of_circuit ?(tech = Mixsyn_circuit.Tech.generic_07um) nl op ~out ~order =
  let g, c, b_cplx = Mixsyn_engine.Ac.build_system tech nl op in
  let b = Array.map (fun (z : Complex.t) -> z.Complex.re) b_cplx in
  of_network ~g ~c ~b ~out:(Mixsyn_engine.Mna.node_index out) ~order

let eval tf s =
  let acc = ref Complex.zero in
  Array.iteri
    (fun i p -> acc := Complex.add !acc (Complex.div tf.residues.(i) (Complex.sub s p)))
    tf.poles;
  !acc

let magnitude tf f = Complex.norm (eval tf { Complex.re = 0.0; im = 2.0 *. Float.pi *. f })

let impulse_response tf t =
  let acc = ref 0.0 in
  Array.iteri
    (fun i (p : Complex.t) ->
      let e = Complex.mul tf.residues.(i) (Complex.exp (Complex.mul p { Complex.re = t; im = 0.0 })) in
      acc := !acc +. e.Complex.re)
    tf.poles;
  !acc

let step_response tf t =
  let acc = ref 0.0 in
  Array.iteri
    (fun i (p : Complex.t) ->
      let k = tf.residues.(i) in
      if Complex.norm p < 1e-12 then acc := !acc +. (k.Complex.re *. t)
      else begin
        let e =
          Complex.mul (Complex.div k p)
            (Complex.sub (Complex.exp (Complex.mul p { Complex.re = t; im = 0.0 })) Complex.one)
        in
        acc := !acc +. e.Complex.re
      end)
    tf.poles;
  !acc

let dominant_pole tf =
  Array.fold_left
    (fun best (p : Complex.t) ->
      if p.Complex.re >= 0.0 then best
      else
        match best with
        | None -> Some p
        | Some q -> if Complex.norm p < Complex.norm q then Some p else best)
    None tf.poles

let stable tf = Array.for_all (fun (p : Complex.t) -> p.Complex.re < 0.0) tf.poles

let stable_part tf =
  let keep =
    Array.to_list (Array.mapi (fun i (p : Complex.t) -> (p, tf.residues.(i))) tf.poles)
    |> List.filter (fun ((p : Complex.t), _) -> p.Complex.re < 0.0)
  in
  { tf with
    poles = Array.of_list (List.map fst keep);
    residues = Array.of_list (List.map snd keep) }
