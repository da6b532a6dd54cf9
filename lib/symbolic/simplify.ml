module Telemetry = Mixsyn_util.Telemetry

type report = {
  simplified : Analyze.rational;
  terms_before : int;
  terms_after : int;
  max_coeff_error : float;
}

(* Each term is evaluated once; its value serves the dominant magnitude and
   the total of its s-power group, the cut, and the kept total. *)
let prune_poly ~value ~threshold p =
  let { Expr.values; starts } = Expr.numeric value p in
  let cuts = Array.make (Array.length starts - 1) 0.0 in
  let errors = ref 0.0 in
  for k = 0 to Array.length cuts - 1 do
    let dominant = ref 0.0 and total = ref 0.0 in
    for i = starts.(k) to starts.(k + 1) - 1 do
      let v = Float.Array.get values i in
      dominant := Float.max !dominant (Float.abs v);
      total := !total +. v
    done;
    let cut = threshold *. !dominant in
    let kept_total = ref 0.0 in
    for i = starts.(k) to starts.(k + 1) - 1 do
      let v = Float.Array.get values i in
      if Float.abs v >= cut then kept_total := !kept_total +. v
    done;
    if Float.abs !total > 0.0 then
      errors := Float.max !errors (Float.abs ((!kept_total -. !total) /. !total));
    cuts.(k) <- cut
  done;
  let kept i (t : Expr.term) = Float.abs (Float.Array.get values i) >= cuts.(t.Expr.s_pow) in
  (Expr.filteri kept p, !errors)

let prune ~value ~threshold (r : Analyze.rational) =
  Telemetry.with_span "symbolic.prune" @@ fun () ->
  let terms_before = Analyze.term_count r in
  Telemetry.add "symbolic.term_evals" terms_before;
  let num, e1 = prune_poly ~value ~threshold r.Analyze.num in
  let den, e2 = prune_poly ~value ~threshold r.Analyze.den in
  { simplified = { Analyze.num; den };
    terms_before;
    terms_after = Expr.term_count num + Expr.term_count den;
    max_coeff_error = Float.max e1 e2 }

(* Both rationals are evaluated once per call; each frequency then only
   sums the stored term values against powers of s. *)
let magnitude_error ~value ~exact ~approx ~freqs =
  Telemetry.with_span "symbolic.magnitude_error" @@ fun () ->
  Telemetry.add "symbolic.term_evals" (Analyze.term_count exact + Analyze.term_count approx);
  let numeric (r : Analyze.rational) =
    (Expr.numeric value r.Analyze.num, Expr.numeric value r.Analyze.den)
  in
  let exact = numeric exact and approx = numeric approx in
  let magnitude (num, den) sval =
    Complex.norm (Complex.div (Expr.eval_numeric num sval) (Expr.eval_numeric den sval))
  in
  Array.fold_left
    (fun acc f ->
      let sval = { Complex.re = 0.0; im = 2.0 *. Float.pi *. f } in
      let h_exact = magnitude exact sval in
      let h_approx = magnitude approx sval in
      if h_exact > 0.0 then Float.max acc (Float.abs ((h_approx -. h_exact) /. h_exact))
      else acc)
    0.0 freqs
