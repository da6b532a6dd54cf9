(* ISAAC symbolic-simulator tests: exactness against the numeric engine and
   controlled degradation under pruning. *)

module N = Mixsyn_circuit.Netlist
module Tech = Mixsyn_circuit.Tech
module E = Mixsyn_symbolic.Expr
module A = Mixsyn_symbolic.Analyze
module S = Mixsyn_symbolic.Simplify

let tech = Tech.generic_07um

let check_close ?(eps = 1e-6) msg expected actual =
  if Float.abs (expected -. actual) > eps *. Float.max 1e-30 (Float.abs expected) then
    Alcotest.failf "%s: expected %g, got %g" msg expected actual

(* --- oracle: the sort-based algebra the library was bit-checked against --

   A copy of the earlier implementation: [add] sorted [a @ b], [by_s_power]
   regrouped through a hash table, [eval] re-evaluated every term at every
   frequency, [prune_poly] evaluated each term three times, and
   [valuation] parsed each name and scanned the netlist.  The library's
   linear-time versions must agree with it bit for bit. *)

module Oracle = struct
  let compare_term_key (t1 : E.term) (t2 : E.term) =
    match compare t1.E.s_pow t2.E.s_pow with
    | 0 -> compare t1.E.mono t2.E.mono
    | c -> c

  let normalize terms =
    let sorted = List.sort compare_term_key terms in
    let rec merge = function
      | [] -> []
      | [ (t : E.term) ] -> if t.E.coeff = 0.0 then [] else [ t ]
      | (t1 : E.term) :: (t2 : E.term) :: rest ->
        if compare_term_key t1 t2 = 0 then merge ({ t1 with E.coeff = t1.E.coeff +. t2.E.coeff } :: rest)
        else if t1.E.coeff = 0.0 then merge (t2 :: rest)
        else t1 :: merge (t2 :: rest)
    in
    merge sorted

  let add a b = normalize (a @ b)
  let neg a = List.map (fun (t : E.term) -> { t with E.coeff = -.t.E.coeff }) a

  let mul_mono (a : E.mono) (b : E.mono) : E.mono =
    let rec go a b =
      match (a, b) with
      | [], m | m, [] -> m
      | (na, pa) :: ra, (nb, pb) :: rb ->
        if na = nb then (na, pa + pb) :: go ra rb
        else if na < nb then (na, pa) :: go ra b
        else (nb, pb) :: go a rb
    in
    go a b

  let mul a b =
    normalize
      (List.concat_map
         (fun (ta : E.term) ->
           List.map
             (fun (tb : E.term) ->
               { E.coeff = ta.E.coeff *. tb.E.coeff;
                 mono = mul_mono ta.E.mono tb.E.mono;
                 s_pow = ta.E.s_pow + tb.E.s_pow })
             b)
         a)

  let determinant (matrix : E.term list array array) =
    let n = Array.length matrix in
    let memo = Hashtbl.create 256 in
    let rec det col mask =
      if col = n then [ { E.coeff = 1.0; mono = []; s_pow = 0 } ]
      else
        match Hashtbl.find_opt memo mask with
        | Some d -> d
        | None ->
          let acc = ref [] and sign = ref 1.0 in
          for row = 0 to n - 1 do
            if mask land (1 lsl row) <> 0 then begin
              let entry = matrix.(row).(col) in
              if entry <> [] then begin
                let contrib = mul entry (det (col + 1) (mask lxor (1 lsl row))) in
                acc := add !acc (if !sign > 0.0 then contrib else neg contrib)
              end;
              sign := -. !sign
            end
          done;
          Hashtbl.add memo mask !acc;
          !acc
    in
    det 0 ((1 lsl n) - 1)

  let by_s_power p =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (t : E.term) ->
        let existing = try Hashtbl.find tbl t.E.s_pow with Not_found -> [] in
        Hashtbl.replace tbl t.E.s_pow ({ t with E.s_pow = 0 } :: existing))
      p;
    Hashtbl.fold (fun k v acc -> (k, normalize v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let eval value p sval =
    List.fold_left
      (fun acc (t : E.term) ->
        let v = E.eval_mono value t in
        let rec power acc k = if k = 0 then acc else power (Complex.mul acc sval) (k - 1) in
        Complex.add acc (Complex.mul { Complex.re = v; im = 0.0 } (power Complex.one t.E.s_pow)))
      Complex.zero p

  let prune_poly ~value ~threshold p =
    let errors = ref 0.0 in
    let kept =
      List.concat_map
        (fun (s_pow, group) ->
          let magnitudes = List.map (fun t -> Float.abs (E.eval_mono value t)) group in
          let dominant = List.fold_left Float.max 0.0 magnitudes in
          let total = List.fold_left ( +. ) 0.0 (List.map (E.eval_mono value) group) in
          let cut = threshold *. dominant in
          let survivors = List.filter (fun t -> Float.abs (E.eval_mono value t) >= cut) group in
          let kept_total = List.fold_left ( +. ) 0.0 (List.map (E.eval_mono value) survivors) in
          if Float.abs total > 0.0 then
            errors := Float.max !errors (Float.abs ((kept_total -. total) /. total));
          List.map (fun (t : E.term) -> { t with E.s_pow }) survivors)
        (by_s_power p)
    in
    (normalize kept, !errors)

  (* (num, den, max_coeff_error) *)
  let prune ~value ~threshold (num, den) =
    let num, e1 = prune_poly ~value ~threshold num in
    let den, e2 = prune_poly ~value ~threshold den in
    (num, den, Float.max e1 e2)

  let magnitude_error ~value ~exact:(en, ed) ~approx:(an, ad) ~freqs =
    Array.fold_left
      (fun acc f ->
        let sval = { Complex.re = 0.0; im = 2.0 *. Float.pi *. f } in
        let h_exact = Complex.norm (Complex.div (eval value en sval) (eval value ed sval)) in
        let h_approx = Complex.norm (Complex.div (eval value an sval) (eval value ad sval)) in
        if h_exact > 0.0 then Float.max acc (Float.abs ((h_approx -. h_exact) /. h_exact))
        else acc)
      0.0 freqs

  let valuation ~tech nl (op : Mixsyn_engine.Mna.op) name =
    let module Mm = Mixsyn_engine.Mos_model in
    match String.index_opt name '_' with
    | None -> raise Not_found
    | Some i ->
      let kind = String.sub name 0 i in
      let dev = String.sub name (i + 1) (String.length name - i - 1) in
      let find_mos () = List.find (fun ((m : N.mos), _) -> m.N.m_name = dev) op.Mixsyn_engine.Mna.mos_evals in
      let find_element f =
        match List.find_map f (N.elements nl) with Some v -> v | None -> raise Not_found
      in
      (match kind with
       | "gm" -> (
         try Float.abs (snd (find_mos ())).Mm.gm
         with Not_found ->
           find_element (function N.Vccs { g_name; gm; _ } when g_name = dev -> Some gm | _ -> None))
       | "gds" -> Float.abs (snd (find_mos ())).Mm.gds
       | "gmb" -> Float.abs (snd (find_mos ())).Mm.gmb
       | "g" ->
         find_element (function
           | N.Resistor { r_name; ohms; _ } when r_name = dev -> Some (1.0 /. ohms)
           | _ -> None)
       | "c" ->
         find_element (function
           | N.Capacitor { c_name; farads; _ } when c_name = dev -> Some farads
           | _ -> None)
       | "cgs" | "cgd" | "cdb" | "csb" ->
         let m, e = find_mos () in
         let caps = Mm.capacitances tech m e.Mm.region in
         (match kind with
          | "cgs" -> caps.Mm.cgs
          | "cgd" -> caps.Mm.cgd
          | "cdb" -> caps.Mm.cdb
          | _ -> caps.Mm.csb)
       | _ -> raise Not_found)
end

let terms (p : E.t) = (p :> E.term list)
let bits = Int64.bits_of_float

(* first difference between two term lists, comparing coefficients by their
   bits; None when identical *)
let term_diff (a : E.term list) (b : E.term list) =
  let rec go i a b =
    match (a, b) with
    | [], [] -> None
    | [], _ | _, [] ->
      Some (Printf.sprintf "lengths differ (%d vs %d)" (i + List.length a) (i + List.length b))
    | (x : E.term) :: ra, (y : E.term) :: rb ->
      if x.E.s_pow = y.E.s_pow && x.E.mono = y.E.mono && bits x.E.coeff = bits y.E.coeff then
        go (i + 1) ra rb
      else Some (Printf.sprintf "term %d: %h vs %h" i x.E.coeff y.E.coeff)
  in
  go 0 a b

let check_terms msg expected actual =
  match term_diff expected actual with
  | None -> ()
  | Some d -> Alcotest.failf "%s: %s" msg d

let check_bits msg expected actual =
  if bits expected <> bits actual then Alcotest.failf "%s: %h vs %h" msg expected actual

(* --- expression algebra ------------------------------------------------- *)

let value_of = function
  | "a" -> 2.0
  | "b" -> 3.0
  | "c" -> 5.0
  | _ -> 1.0

let eval p = (E.eval value_of p { Complex.re = 0.5; im = 0.0 }).Complex.re

let test_expr_basic () =
  let a = E.sym "a" and b = E.sym "b" in
  check_close "a+b" 5.0 (eval (E.add a b));
  check_close "a*b" 6.0 (eval (E.mul a b));
  check_close "a-b" (-1.0) (eval (E.sub a b));
  check_close "-(a)" (-2.0) (eval (E.neg a));
  check_close "3a" 6.0 (eval (E.scale 3.0 a))

let test_expr_s_powers () =
  let p = E.add E.one (E.s_times 2 (E.sym "c")) in
  (* 1 + 5 s^2 at s = 0.5 -> 2.25 *)
  check_close "s powers" 2.25 (eval p);
  Alcotest.(check int) "degree" 2 (E.degree_s p);
  let groups = E.by_s_power p in
  Alcotest.(check int) "two groups" 2 (List.length groups)

let test_expr_cancellation () =
  let a = E.sym "a" in
  Alcotest.(check bool) "a - a = 0" true (E.is_zero (E.sub a a));
  Alcotest.(check int) "term count" 0 (E.term_count (E.sub a a))

let test_expr_s_coeffs () =
  let p = E.add (E.scale 2.0 E.one) (E.s_times 1 (E.sym "b")) in
  let coeffs = E.eval_s_coeffs value_of p in
  check_close "c0" 2.0 coeffs.(0);
  check_close "c1" 3.0 coeffs.(1)

(* --- determinant --------------------------------------------------------- *)

let test_determinant_numeric () =
  (* compare symbolic determinant against numeric LU on constant matrices *)
  let rng = Mixsyn_util.Rng.create 9 in
  for _ = 1 to 20 do
    let n = 1 + Mixsyn_util.Rng.int rng 5 in
    let values = Array.init n (fun _ -> Array.init n (fun _ -> Mixsyn_util.Rng.uniform rng (-2.0) 2.0)) in
    let sym_m = Array.map (Array.map E.const) values in
    let det_sym = (E.eval value_of (A.determinant sym_m) Complex.zero).Complex.re in
    let det_num = Mixsyn_util.Matrix.Real.determinant values in
    check_close ~eps:1e-6 "determinant" det_num det_sym
  done

let test_determinant_symbolic_2x2 () =
  let m = [| [| E.sym "a"; E.sym "b" |]; [| E.sym "c"; E.sym "a" |] |] in
  (* det = a^2 - b c = 4 - 15 = -11 *)
  check_close "2x2" (-11.0) ((E.eval value_of (A.determinant m) Complex.zero).Complex.re)

(* --- transfer functions ---------------------------------------------------- *)

let divider () =
  let c = N.create () in
  let vin = N.new_net ~name:"vin" c and out = N.new_net ~name:"out" c in
  N.add c (N.Vsource { v_name = "v1"; p = vin; n = N.gnd; dc = 2.0; ac = 1.0; v_wave = N.Dc_wave });
  N.add c (N.Resistor { r_name = "r1"; a = vin; b = out; ohms = 1000.0 });
  N.add c (N.Resistor { r_name = "r2"; a = out; b = N.gnd; ohms = 1000.0 });
  N.add c (N.Capacitor { c_name = "c1"; a = out; b = N.gnd; farads = 1e-6 });
  (c, out)

let test_transfer_divider () =
  let c, out = divider () in
  let r = A.transfer c ~out in
  let op = Mixsyn_engine.Dc.solve ~tech c in
  let v = A.valuation ~tech c op in
  let h0 = A.eval_rational v r Complex.zero in
  check_close "H(0)" 0.5 h0.Complex.re;
  let hp = Complex.norm (A.eval_rational v r { Complex.re = 0.0; im = 2.0 *. Float.pi *. 318.3 }) in
  check_close ~eps:0.01 "pole magnitude" (0.5 /. sqrt 2.0) hp

let ota () =
  let t = Mixsyn_circuit.Topology.ota_5t in
  let nl = t.Mixsyn_circuit.Template.build tech [| 50e-6; 25e-6; 40e-6; 1e-6; 100e-6; 2e-12 |] in
  let out = N.find_net nl "out" in
  (nl, out)

let test_transfer_matches_numeric_ac () =
  let nl, out = ota () in
  let r = A.transfer nl ~out in
  let op = Mixsyn_engine.Dc.solve ~tech nl in
  let v = A.valuation ~tech nl op in
  let freqs = [| 1.0; 1e4; 1e6; 1e8 |] in
  let ac = Mixsyn_engine.Ac.solve ~tech nl op ~freqs in
  Array.iteri
    (fun k f ->
      let numeric = Mixsyn_engine.Ac.magnitude ac k out in
      let symbolic =
        Complex.norm (A.eval_rational v r { Complex.re = 0.0; im = 2.0 *. Float.pi *. f })
      in
      check_close ~eps:1e-3 (Printf.sprintf "f=%g" f) numeric symbolic)
    freqs

let test_valuation_symbols () =
  let nl, _ = ota () in
  let op = Mixsyn_engine.Dc.solve ~tech nl in
  let v = A.valuation ~tech nl op in
  if v "gm_m1" <= 0.0 then Alcotest.fail "gm must be positive";
  if v "gds_m1" <= 0.0 then Alcotest.fail "gds must be positive";
  check_close ~eps:1e-9 "cap symbol" 2e-12 (v "c_cl");
  (match v "bogus_symbol" with
   | exception Not_found -> ()
   | _ -> Alcotest.fail "expected Not_found")

(* --- pruning ----------------------------------------------------------------- *)

let test_prune_monotone () =
  let nl, out = ota () in
  let r = A.transfer nl ~out in
  let op = Mixsyn_engine.Dc.solve ~tech nl in
  let v = A.valuation ~tech nl op in
  let counts =
    List.map
      (fun th -> (S.prune ~value:v ~threshold:th r).S.terms_after)
      [ 0.001; 0.01; 0.1 ]
  in
  (match counts with
   | [ a; b; c ] ->
     if not (a >= b && b >= c) then Alcotest.fail "term count should fall with threshold";
     if c < 2 then Alcotest.fail "pruning removed everything"
   | _ -> assert false)

let test_prune_error_bounded () =
  let nl, out = ota () in
  let r = A.transfer nl ~out in
  let op = Mixsyn_engine.Dc.solve ~tech nl in
  let v = A.valuation ~tech nl op in
  let report = S.prune ~value:v ~threshold:0.01 r in
  let freqs = Mixsyn_engine.Ac.log_sweep ~decades_from:0.0 ~decades_to:9.0 ~points_per_decade:4 in
  let err = S.magnitude_error ~value:v ~exact:r ~approx:report.S.simplified ~freqs in
  if err > 0.10 then Alcotest.failf "1%% pruning produced %g magnitude error" err;
  if report.S.terms_after >= report.S.terms_before then Alcotest.fail "nothing pruned"

let test_prune_identity_at_zero_threshold () =
  let nl, out = ota () in
  let r = A.transfer nl ~out in
  let op = Mixsyn_engine.Dc.solve ~tech nl in
  let v = A.valuation ~tech nl op in
  let report = S.prune ~value:v ~threshold:0.0 r in
  Alcotest.(check int) "no terms dropped" (A.term_count r) report.S.terms_after

(* --- interval bounds -------------------------------------------------------- *)

module I = Mixsyn_util.Interval

let test_interval_coeffs () =
  let p = E.add (E.scale 2.0 (E.sym "a")) (E.s_times 1 (E.mul (E.sym "b") (E.sym "c"))) in
  let ranges = function
    | "a" -> I.make 1.0 3.0
    | "b" -> I.make 2.0 4.0
    | "c" -> I.make 4.0 6.0
    | _ -> I.point 1.0
  in
  let coeffs = E.eval_s_coeffs_interval ranges p in
  (* a = 2, b = 3, c = 5 (value_of) sit inside the ranges *)
  let concrete = E.eval_s_coeffs value_of p in
  Array.iteri
    (fun k iv ->
      if not (I.contains iv concrete.(k)) then
        Alcotest.failf "s^%d: concrete %g outside [%g, %g]" k concrete.(k) (I.lo iv)
          (I.hi iv))
    coeffs;
  (* and the enclosures are the exact interval products here *)
  Alcotest.(check bool) "c0 = 2*[1,3]" true (I.contains coeffs.(0) 2.0 && I.contains coeffs.(0) 6.0);
  Alcotest.(check bool) "c1 = [2,4]*[4,6]" true (I.contains coeffs.(1) 8.0 && I.contains coeffs.(1) 24.0)

(* enclosure property on a real amplifier: symbol boxes around the operating
   point must contain every concrete figure computed at valuations sampled
   inside those boxes *)
let test_transfer_bounds_enclose () =
  let nl, out = ota () in
  let r = A.transfer nl ~out in
  let op = Mixsyn_engine.Dc.solve ~tech nl in
  let v = A.valuation ~tech nl op in
  let half_band name =
    let x = v name in
    let w = 0.5 *. Float.abs x in
    I.make (x -. w) (x +. w)
  in
  let dc = A.bound_dc_gain half_band r in
  let gbw = A.bound_gbw half_band r in
  let fp = A.bound_dominant_pole half_band r in
  Alcotest.(check bool) "dc bound nonempty" false (I.is_empty dc);
  let num_iv, den_iv = A.bound_num_den half_band r in
  let rng = Mixsyn_util.Rng.create 31 in
  for _ = 1 to 200 do
    (* one concrete valuation drawn uniformly inside every symbol box *)
    let tbl = Hashtbl.create 16 in
    let sample name =
      match Hashtbl.find_opt tbl name with
      | Some x -> x
      | None ->
        let iv = half_band name in
        let x = Mixsyn_util.Rng.uniform rng (I.lo iv) (I.hi iv) in
        Hashtbl.add tbl name x;
        x
    in
    let num, den = A.num_den_coeffs sample r in
    Array.iteri
      (fun k c ->
        if not (I.contains num_iv.(k) c) then
          Alcotest.failf "num s^%d: %g escapes enclosure" k c)
      num;
    Array.iteri
      (fun k c ->
        if not (I.contains den_iv.(k) c) then
          Alcotest.failf "den s^%d: %g escapes enclosure" k c)
      den;
    if not (I.contains dc (num.(0) /. den.(0))) then
      Alcotest.failf "dc gain %g escapes %g..%g" (num.(0) /. den.(0)) (I.lo dc) (I.hi dc);
    let two_pi = 2.0 *. Float.pi in
    if Array.length den > 1 then begin
      if not (I.contains gbw (Float.abs num.(0) /. (two_pi *. Float.abs den.(1)))) then
        Alcotest.fail "gbw escapes enclosure";
      if not (I.contains fp (Float.abs den.(0) /. (two_pi *. Float.abs den.(1)))) then
        Alcotest.fail "dominant pole escapes enclosure"
    end
  done;
  (* the operating point itself is one such valuation *)
  let h0 = (A.eval_rational v r Complex.zero).Complex.re in
  Alcotest.(check bool) "operating-point gain enclosed" true (I.contains dc h0)

let prop_random_ladder_exact =
  QCheck.Test.make ~name:"symbolic transfer matches numeric AC on random ladders" ~count:40
    QCheck.(pair (int_range 0 5000) (int_range 1 4))
    (fun (seed, n) ->
      let rng = Mixsyn_util.Rng.create seed in
      let c = N.create () in
      let vin = N.new_net ~name:"vin" c in
      N.add c (N.Vsource { v_name = "v1"; p = vin; n = N.gnd; dc = 1.0; ac = 1.0; v_wave = N.Dc_wave });
      let prev = ref vin in
      let out = ref vin in
      for k = 1 to n do
        let node = N.new_net c in
        N.add c (N.Resistor { r_name = Printf.sprintf "r%d" k; a = !prev; b = node;
                              ohms = Mixsyn_util.Rng.uniform rng 100.0 10e3 });
        N.add c (N.Capacitor { c_name = Printf.sprintf "c%d" k; a = node; b = N.gnd;
                               farads = Mixsyn_util.Rng.uniform rng 1e-12 1e-9 });
        N.add c (N.Resistor { r_name = Printf.sprintf "rs%d" k; a = node; b = N.gnd;
                              ohms = Mixsyn_util.Rng.uniform rng 1e3 100e3 });
        prev := node;
        out := node
      done;
      let out = !out in
      let r = A.transfer c ~out in
      let op = Mixsyn_engine.Dc.solve ~tech c in
      let v = A.valuation ~tech c op in
      let f = Mixsyn_util.Rng.uniform rng 1.0 1e8 in
      let ac = Mixsyn_engine.Ac.solve ~tech c op ~freqs:[| f |] in
      let numeric = Mixsyn_engine.Ac.magnitude ac 0 out in
      let symbolic =
        Complex.norm (A.eval_rational v r { Complex.re = 0.0; im = 2.0 *. Float.pi *. f })
      in
      Float.abs (numeric -. symbolic) <= 1e-6 +. (1e-4 *. numeric))

(* --- bit-for-bit against the oracle --------------------------------------- *)

(* random normalised polynomials over three symbols: coefficients from a
   small set so that keys and sums collide, and [b] carries the negation of
   half of [a]'s terms so that [add a b] cancels exactly *)
let gen_terms =
  let open QCheck.Gen in
  let coeff = oneof [ oneofl [ 1.0; -1.0; 0.5; 3.0; 0.1; 0.2; 0.3; 1e-300 ]; float_range (-10.0) 10.0 ] in
  let term =
    map3
      (fun coeff pows s_pow ->
        let mono = List.filter (fun (_, p) -> p > 0) (List.combine [ "a"; "b"; "c" ] pows) in
        { E.coeff; mono; s_pow })
      coeff (list_repeat 3 (int_bound 2)) (int_bound 2)
  in
  list_size (int_bound 30) term

let print_terms ts =
  String.concat " + "
    (List.map
       (fun (t : E.term) ->
         Printf.sprintf "%h%s*s^%d" t.E.coeff
           (String.concat "" (List.map (fun (n, p) -> Printf.sprintf "*%s^%d" n p) t.E.mono))
           t.E.s_pow)
       ts)

let prop_add_matches_oracle =
  QCheck.Test.make ~name:"add, sub and of_terms match the sort-based oracle bitwise" ~count:500
    (QCheck.make ~print:QCheck.Print.(pair print_terms print_terms) QCheck.Gen.(pair gen_terms gen_terms))
    (fun (ta, tb) ->
      let a = E.of_terms ta in
      let cancel = List.filteri (fun i _ -> i mod 2 = 0) (Oracle.neg (terms a)) in
      let b = E.of_terms (tb @ cancel) in
      let same x y = term_diff x y = None in
      same (Oracle.normalize ta) (terms a)
      && same (Oracle.add (terms a) (terms b)) (terms (E.add a b))
      && same (Oracle.add (terms b) (terms a)) (terms (E.add b a))
      && same (Oracle.add (terms a) (Oracle.neg (terms b))) (terms (E.sub a b))
      && same (Oracle.mul (terms a) (terms b)) (terms (E.mul a b))
      && List.for_all2
           (fun (k, g) (k', g') -> k = k' && same g (terms g'))
           (Oracle.by_s_power (terms a)) (E.by_s_power a))

let test_scale_underflow () =
  let p = E.scale 1e-300 (E.const 1e-300) in
  Alcotest.(check int) "underflowed term dropped" 0 (E.term_count p);
  Alcotest.(check bool) "is zero" true (E.is_zero p);
  Alcotest.(check int) "the rest survives" 1
    (E.term_count (E.scale 1e-300 (E.add (E.const 1e-300) (E.sym "a"))))

(* the E9 sizings of bench/main.ml *)
let e9_sizings =
  [ (Mixsyn_circuit.Topology.ota_5t, [| 50e-6; 25e-6; 40e-6; 1e-6; 100e-6; 2e-12 |]);
    ( Mixsyn_circuit.Topology.miller_ota,
      [| 60e-6; 20e-6; 30e-6; 60e-6; 45e-6; 1e-6; 50e-6; 3e-12; 5e-12 |] ) ]

let e9_thresholds = [ 0.001; 0.01; 0.05; 0.25 ]

let build (t : Mixsyn_circuit.Template.t) x =
  let nl = t.Mixsyn_circuit.Template.build tech x in
  (nl, N.find_net nl "out")

let test_transfer_matches_oracle () =
  let rng = Mixsyn_util.Rng.create 14 in
  List.iter
    (fun (t, x) ->
      let name = t.Mixsyn_circuit.Template.t_name in
      let seeded = Mixsyn_circuit.Template.random_point t rng in
      List.iter
        (fun (label, x) ->
          let nl, out = build t x in
          let r = A.transfer nl ~out in
          let a, a_out = A.cramer_matrices nl ~out in
          let oracle m = Oracle.determinant (Array.map (Array.map terms) m) in
          check_terms (Printf.sprintf "%s %s den" name label) (oracle a) (terms r.A.den);
          check_terms (Printf.sprintf "%s %s num" name label) (oracle a_out) (terms r.A.num))
        [ ("E9", x); ("seeded", seeded) ])
    e9_sizings

let test_prune_matches_oracle () =
  List.iter
    (fun ((t : Mixsyn_circuit.Template.t), x) ->
      let name = t.Mixsyn_circuit.Template.t_name in
      let nl, out = build t x in
      let r = A.transfer nl ~out in
      let v = A.valuation ~tech nl (Mixsyn_engine.Dc.solve ~tech nl) in
      let exact = (terms r.A.num, terms r.A.den) in
      (* the bench's grid on the small circuit, the benchmark's on the big *)
      let points_per_decade = if A.term_count r < 20_000 then 3 else 1 in
      let freqs = Mixsyn_engine.Ac.log_sweep ~decades_from:0.0 ~decades_to:9.0 ~points_per_decade in
      List.iter
        (fun threshold ->
          let msg what = Printf.sprintf "%s eps=%g %s" name threshold what in
          let rep = S.prune ~value:v ~threshold r in
          let num, den, err = Oracle.prune ~value:v ~threshold exact in
          check_terms (msg "num") num (terms rep.S.simplified.A.num);
          check_terms (msg "den") den (terms rep.S.simplified.A.den);
          Alcotest.(check int) (msg "terms after") (List.length num + List.length den) rep.S.terms_after;
          check_bits (msg "coeff error") err rep.S.max_coeff_error;
          check_bits (msg "magnitude error")
            (Oracle.magnitude_error ~value:v ~exact ~approx:(num, den) ~freqs)
            (S.magnitude_error ~value:v ~exact:r ~approx:rep.S.simplified ~freqs);
          let sval = { Complex.re = 0.0; im = 2.0 *. Float.pi *. 1e6 } in
          let h = A.eval_rational v rep.S.simplified sval in
          let h' = Complex.div (Oracle.eval v num sval) (Oracle.eval v den sval) in
          check_bits (msg "eval re") h'.Complex.re h.Complex.re;
          check_bits (msg "eval im") h'.Complex.im h.Complex.im)
        e9_thresholds)
    e9_sizings

(* every symbol lookup of the eager table is one evaluation of the on-demand
   one, bit for bit *)
let test_valuation_matches_oracle () =
  List.iter
    (fun ((t : Mixsyn_circuit.Template.t), x) ->
      let nl, out = build t x in
      let op = Mixsyn_engine.Dc.solve ~tech nl in
      let v = A.valuation ~tech nl op in
      List.iter
        (fun name ->
          check_bits (t.Mixsyn_circuit.Template.t_name ^ " " ^ name)
            (Oracle.valuation ~tech nl op name) (v name))
        (A.symbols (A.transfer nl ~out)))
    e9_sizings

let test_valuation_mos_over_vccs () =
  let nl, _ = ota () in
  (* a VCCS sharing a MOS name, and one of its own; neither carries current *)
  N.add nl (N.Vccs { g_name = "m1"; p = N.gnd; n = N.gnd; cp = N.gnd; cn = N.gnd; gm = 123.0 });
  N.add nl (N.Vccs { g_name = "gx"; p = N.gnd; n = N.gnd; cp = N.gnd; cn = N.gnd; gm = 7.0 });
  let op = Mixsyn_engine.Dc.solve ~tech nl in
  let v = A.valuation ~tech nl op in
  let _, e =
    List.find (fun ((m : N.mos), _) -> m.N.m_name = "m1") op.Mixsyn_engine.Mna.mos_evals
  in
  check_bits "gm_m1 is the MOS's" (Float.abs e.Mixsyn_engine.Mos_model.gm) (v "gm_m1");
  check_bits "gm_gx is the VCCS's" 7.0 (v "gm_gx");
  List.iter
    (fun name ->
      match v name with
      | exception Not_found -> ()
      | x -> Alcotest.failf "%s: expected Not_found, got %g" name x)
    [ "gm_nosuch"; "gds_gx"; "c_m1"; "m1"; ""; "gm_"; "zz_m1" ]

let test_valuation_two_domains () =
  let nl, out = ota () in
  let v = A.valuation ~tech nl (Mixsyn_engine.Dc.solve ~tech nl) in
  let names = Array.of_list (A.symbols (A.transfer nl ~out)) in
  let many = Array.concat (List.init 200 (fun _ -> names)) in
  let serial = Array.map v many in
  let parallel = Mixsyn_util.Pool.parallel_map ~jobs:2 v many in
  Array.iteri (fun i x -> check_bits many.(i) x parallel.(i)) serial

(* one evaluation per term per call, visible as a counter *)
let test_term_eval_count () =
  let nl, out = ota () in
  let r = A.transfer nl ~out in
  let v = A.valuation ~tech nl (Mixsyn_engine.Dc.solve ~tech nl) in
  let freqs = Mixsyn_engine.Ac.log_sweep ~decades_from:0.0 ~decades_to:9.0 ~points_per_decade:3 in
  let module T = Mixsyn_util.Telemetry in
  T.reset ();
  let rep = S.prune ~value:v ~threshold:0.01 r in
  Alcotest.(check int) "prune" (A.term_count r) (T.counter "symbolic.term_evals");
  T.reset ();
  ignore (S.magnitude_error ~value:v ~exact:r ~approx:rep.S.simplified ~freqs);
  Alcotest.(check int) "magnitude_error, independent of the grid"
    (A.term_count r + rep.S.terms_after) (T.counter "symbolic.term_evals");
  Alcotest.(check int) "span" 1 (T.span_calls "symbolic.magnitude_error");
  T.reset ()

let () =
  Alcotest.run "symbolic"
    [ ( "expr",
        [ Alcotest.test_case "algebra" `Quick test_expr_basic;
          Alcotest.test_case "s powers" `Quick test_expr_s_powers;
          Alcotest.test_case "cancellation" `Quick test_expr_cancellation;
          Alcotest.test_case "s coefficients" `Quick test_expr_s_coeffs;
          Alcotest.test_case "scale underflow" `Quick test_scale_underflow ] );
      ( "determinant",
        [ Alcotest.test_case "numeric agreement" `Quick test_determinant_numeric;
          Alcotest.test_case "symbolic 2x2" `Quick test_determinant_symbolic_2x2 ] );
      ( "transfer",
        [ Alcotest.test_case "divider" `Quick test_transfer_divider;
          Alcotest.test_case "matches numeric AC" `Quick test_transfer_matches_numeric_ac;
          Alcotest.test_case "valuation" `Quick test_valuation_symbols;
          Alcotest.test_case "valuation mos over vccs" `Quick test_valuation_mos_over_vccs;
          Alcotest.test_case "valuation two domains" `Quick test_valuation_two_domains ] );
      ( "bounds",
        [ Alcotest.test_case "interval coefficients" `Quick test_interval_coeffs;
          Alcotest.test_case "transfer bounds enclose" `Quick test_transfer_bounds_enclose ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_random_ladder_exact;
          QCheck_alcotest.to_alcotest prop_add_matches_oracle ] );
      ( "oracle",
        [ Alcotest.test_case "transfer bitwise" `Quick test_transfer_matches_oracle;
          Alcotest.test_case "prune and magnitude error bitwise" `Quick test_prune_matches_oracle;
          Alcotest.test_case "valuation bitwise" `Quick test_valuation_matches_oracle;
          Alcotest.test_case "term evaluations counted" `Quick test_term_eval_count ] );
      ( "simplify",
        [ Alcotest.test_case "monotone" `Quick test_prune_monotone;
          Alcotest.test_case "error bounded" `Quick test_prune_error_bounded;
          Alcotest.test_case "zero threshold identity" `Quick test_prune_identity_at_zero_threshold ] ) ]
