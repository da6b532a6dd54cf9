(* Unit and property tests for the numerical substrate. *)

module Rng = Mixsyn_util.Rng
module Real = Mixsyn_util.Matrix.Real
module Cplx = Mixsyn_util.Matrix.Cplx
module Poly = Mixsyn_util.Poly
module I = Mixsyn_util.Interval
module Stats = Mixsyn_util.Stats
module Units = Mixsyn_util.Units
module T = Mixsyn_util.Telemetry
module EC = Mixsyn_util.Eval_cache

let close ?(eps = 1e-9) a b =
  Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let check_close ?(eps = 1e-9) msg expected actual =
  if not (close ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* --- rng -------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "int out of bounds: %d" v;
    let f = Rng.float rng 3.5 in
    if f < 0.0 || f >= 3.5 then Alcotest.failf "float out of bounds: %g" f;
    let u = Rng.uniform rng (-2.0) 5.0 in
    if u < -2.0 || u >= 5.0 then Alcotest.failf "uniform out of bounds: %g" u
  done

let test_rng_gauss_moments () =
  let rng = Rng.create 11 in
  let n = 40_000 in
  let samples = Array.init n (fun _ -> Rng.gauss rng) in
  if Float.abs (Stats.mean samples) > 0.02 then
    Alcotest.failf "gauss mean too far from 0: %g" (Stats.mean samples);
  if Float.abs (Stats.stddev samples -. 1.0) > 0.02 then
    Alcotest.failf "gauss stddev too far from 1: %g" (Stats.stddev samples)

let test_rng_shuffle_permutes () =
  let rng = Rng.create 3 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_split_independent () =
  let parent = Rng.create 5 in
  let child = Rng.split parent in
  let a = Array.init 10 (fun _ -> Rng.int parent 1000) in
  let b = Array.init 10 (fun _ -> Rng.int child 1000) in
  if a = b then Alcotest.fail "split streams identical"

(* --- matrices --------------------------------------------------------- *)

let random_system rng n =
  let a =
    Array.init n (fun i ->
        Array.init n (fun j ->
            Rng.uniform rng (-1.0) 1.0 +. if i = j then 4.0 else 0.0))
  in
  let x = Array.init n (fun _ -> Rng.uniform rng (-5.0) 5.0) in
  (a, x)

let test_real_solve_roundtrip () =
  let rng = Rng.create 17 in
  for _ = 1 to 50 do
    let n = 1 + Rng.int rng 12 in
    let a, x = random_system rng n in
    let b = Real.mat_vec a x in
    let x' = Real.solve a b in
    Array.iteri (fun i xi -> check_close ~eps:1e-8 "solve" xi x'.(i)) x
  done

let test_real_identity () =
  let i5 = Real.identity 5 in
  let b = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check (array (float 1e-12))) "identity solve" b (Real.solve i5 b)

let test_real_singular () =
  let a = [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  match Real.lu_factor a with
  | exception Real.Singular _ -> ()
  | _ -> Alcotest.fail "singular matrix not detected"

let test_real_determinant () =
  let a = [| [| 2.0; 0.0; 0.0 |]; [| 0.0; 3.0; 0.0 |]; [| 1.0; 1.0; 4.0 |] |] in
  check_close "det" 24.0 (Real.determinant a);
  let b = [| a.(1); a.(0); a.(2) |] in
  check_close "det sign" (-24.0) (Real.determinant b)

let test_cplx_solve () =
  let j = { Complex.re = 0.0; im = 1.0 } in
  let one = Complex.one in
  (* (1+j) x = 2 -> x = 1-j *)
  let a = [| [| Complex.add one j |] |] in
  let b = [| { Complex.re = 2.0; im = 0.0 } |] in
  let x = Cplx.solve a b in
  check_close "re" 1.0 x.(0).Complex.re;
  check_close "im" (-1.0) x.(0).Complex.im

let test_mat_mul_assoc () =
  let rng = Rng.create 23 in
  let m () = Array.init 4 (fun _ -> Array.init 4 (fun _ -> Rng.uniform rng (-1.0) 1.0)) in
  let a = m () and b = m () and c = m () in
  let left = Real.mat_mul (Real.mat_mul a b) c in
  let right = Real.mat_mul a (Real.mat_mul b c) in
  Array.iteri
    (fun i row -> Array.iteri (fun k v -> check_close ~eps:1e-10 "assoc" v right.(i).(k)) row)
    left

(* --- flat kernels ------------------------------------------------------ *)

module Fmat = Mixsyn_util.Fmat

(* [Fmat] promises the exact scalar operation sequence of [Matrix.Make], so
   these comparisons are bit-for-bit ([=] on floats), not within an eps. *)

let test_fmat_real_bitexact () =
  let rng = Rng.create 29 in
  for _ = 1 to 60 do
    let n = 1 + Rng.int rng 12 in
    let a, x = random_system rng n in
    let b = Real.mat_vec a x in
    let boxed = Real.solve a b in
    let flat = Array.make n 0.0 in
    (* draw from the domain pool so reuse of a dirty workspace is exercised *)
    Fmat.with_real n (fun ws ->
        Fmat.Real.clear ws;
        for i = 0 to n - 1 do
          Fmat.Real.rhs ws i b.(i);
          for j = 0 to n - 1 do
            Fmat.Real.stamp ws i j a.(i).(j)
          done
        done;
        Fmat.Real.factor ws;
        Fmat.Real.solve ws flat);
    Array.iteri
      (fun i v ->
        if v <> flat.(i) then
          Alcotest.failf "n=%d x.(%d): boxed %.17g <> flat %.17g" n i v flat.(i))
      boxed
  done

let random_cplx_system rng n =
  (* diagonally dominant split planes, as an AC system (g + j omega c) *)
  let g =
    Array.init n (fun i ->
        Array.init n (fun j ->
            Rng.uniform rng (-1.0) 1.0 +. if i = j then 5.0 else 0.0))
  in
  let c = Array.init n (fun _ -> Array.init n (fun _ -> Rng.uniform rng (-1.0) 1.0)) in
  let br = Array.init n (fun _ -> Rng.uniform rng (-2.0) 2.0) in
  let bi = Array.init n (fun _ -> Rng.uniform rng (-2.0) 2.0) in
  (g, c, br, bi)

let test_fmat_cplx_bitexact () =
  let rng = Rng.create 31 in
  for _ = 1 to 60 do
    let n = 1 + Rng.int rng 10 in
    let g, c, br, bi = random_cplx_system rng n in
    let omega = Rng.uniform rng 0.1 10.0 in
    let a =
      Array.init n (fun i ->
          Array.init n (fun j -> { Complex.re = g.(i).(j); im = omega *. c.(i).(j) }))
    in
    let b = Array.init n (fun i -> { Complex.re = br.(i); im = bi.(i) }) in
    let boxed = Cplx.solve a b in
    let gf = Fmat.flatten g and cf = Fmat.flatten c in
    let flat = Array.make n Complex.zero in
    Fmat.with_cplx n (fun ws ->
        Fmat.Cplx.load_ac ws ~g:gf ~c:cf ~omega;
        Fmat.Cplx.set_rhs ws ~re:(Float.Array.init n (fun i -> br.(i))) ~im:(Float.Array.init n (fun i -> bi.(i)));
        Fmat.Cplx.factor ws;
        Fmat.Cplx.solve ws flat);
    Array.iteri
      (fun i (v : Complex.t) ->
        if v.Complex.re <> flat.(i).Complex.re || v.Complex.im <> flat.(i).Complex.im then
          Alcotest.failf "n=%d x.(%d): boxed %.17g%+.17gi <> flat %.17g%+.17gi" n i
            v.Complex.re v.Complex.im flat.(i).Complex.re flat.(i).Complex.im)
      boxed;
    (* the adjoint loader must equal the boxed solve of the transpose *)
    let at = Array.init n (fun i -> Array.init n (fun j -> a.(j).(i))) in
    let boxed_t = Cplx.solve at b in
    Fmat.with_cplx n (fun ws ->
        Fmat.Cplx.load_ac_transposed ws ~g:gf ~c:cf ~omega;
        Fmat.Cplx.set_rhs ws ~re:(Float.Array.init n (fun i -> br.(i))) ~im:(Float.Array.init n (fun i -> bi.(i)));
        Fmat.Cplx.factor ws;
        Fmat.Cplx.solve ws flat);
    Array.iteri
      (fun i (v : Complex.t) ->
        if v <> flat.(i) then Alcotest.failf "transposed solve differs at %d" i)
      boxed_t
  done

let test_fmat_scaled_pivot () =
  (* threshold shape shared by both kernels *)
  Alcotest.(check (float 0.0)) "absolute floor" 1e-300 (Fmat.pivot_threshold 0.0);
  Alcotest.(check (float 0.0)) "relative" 1e-14 (Fmat.pivot_threshold 1.0);
  (* tiny-valued but well-conditioned (pF/nS-scale stamps) must factor *)
  let tiny = [| [| 1e-12; 1e-14 |]; [| 2e-14; 2e-12 |] |] in
  let b = [| 3e-12; 1e-12 |] in
  let boxed = Real.solve tiny b in
  let flat = Array.make 2 0.0 in
  Fmat.with_real 2 (fun ws ->
      Fmat.Real.clear ws;
      Array.iteri (fun i row -> Array.iteri (fun j v -> Fmat.Real.stamp ws i j v) row) tiny;
      Array.iteri (fun i v -> Fmat.Real.rhs ws i v) b;
      Fmat.Real.factor ws;
      Fmat.Real.solve ws flat);
  Array.iteri (fun i v -> check_close ~eps:1e-12 "tiny system agrees" v flat.(i)) boxed;
  (* numerically singular relative to its own scale: the second pivot is
     ~1e-15 of the column — far above the old absolute 1e-300 floor, so
     only the scaled test catches it, in both kernels *)
  let near = [| [| 1.0; 1.0 |]; [| 1.0; 1.0 +. 1e-15 |] |] in
  (match Real.lu_factor (Array.map Array.copy near) with
   | exception Real.Singular _ -> ()
   | _ -> Alcotest.fail "boxed kernel missed scale-relative singularity");
  (match
     Fmat.with_real 2 (fun ws ->
         Fmat.Real.clear ws;
         Array.iteri (fun i row -> Array.iteri (fun j v -> Fmat.Real.stamp ws i j v) row) near;
         Fmat.Real.factor ws)
   with
   | exception Fmat.Singular _ -> ()
   | _ -> Alcotest.fail "flat kernel missed scale-relative singularity")

let test_fmat_workspace_reuse () =
  (* the pooled workspace is reused across calls of the same size within a
     domain and isolated between nested checkouts *)
  let n = 4 in
  let id = Array.init n (fun i -> Array.init n (fun j -> if i = j then 1.0 else 0.0)) in
  let load ws m =
    Fmat.Real.clear ws;
    Array.iteri (fun i row -> Array.iteri (fun j v -> Fmat.Real.stamp ws i j v) row) m
  in
  let x = Array.make n 0.0 in
  Fmat.with_real n (fun ws ->
      load ws id;
      Array.iteri (fun i _ -> Fmat.Real.rhs ws i (float_of_int (i + 1))) x;
      Fmat.Real.factor ws;
      Fmat.Real.solve ws x;
      (* nested same-size checkout must not hand back the busy workspace *)
      Fmat.with_real n (fun ws2 ->
          if ws2 == ws then Alcotest.fail "nested checkout returned the busy workspace";
          load ws2 id));
  Alcotest.(check (array (float 0.0))) "identity solve" [| 1.0; 2.0; 3.0; 4.0 |] x;
  (* after release the same buffer comes back (same domain, same size) *)
  let first = Fmat.with_real n (fun ws -> ws) in
  let second = Fmat.with_real n (fun ws -> ws) in
  if first != second then Alcotest.fail "pool did not reuse the released workspace"

(* --- polynomials ------------------------------------------------------ *)

let test_poly_eval () =
  let p = Poly.of_coeffs [| 1.0; -3.0; 2.0 |] in
  check_close "p(0.5)" 0.0 (Poly.eval p 0.5);
  check_close "p(1)" 0.0 (Poly.eval p 1.0);
  check_close "p(2)" 3.0 (Poly.eval p 2.0)

let test_poly_roots_quadratic () =
  let p = Poly.of_coeffs [| 2.0; -3.0; 1.0 |] in
  let roots = Poly.roots p in
  let reals = Array.map (fun (z : Complex.t) -> z.Complex.re) roots in
  Array.sort compare reals;
  check_close ~eps:1e-6 "root 1" 1.0 reals.(0);
  check_close ~eps:1e-6 "root 2" 2.0 reals.(1)

let test_poly_roots_complex () =
  let roots = Poly.roots (Poly.of_coeffs [| 1.0; 0.0; 1.0 |]) in
  Array.iter
    (fun (z : Complex.t) ->
      check_close ~eps:1e-6 "re" 0.0 z.Complex.re;
      check_close ~eps:1e-6 "im magnitude" 1.0 (Float.abs z.Complex.im))
    roots

let test_poly_from_roots_roundtrip () =
  let roots = [| { Complex.re = -1.0; im = 0.0 }; { Complex.re = -2.0; im = 3.0 };
                 { Complex.re = -2.0; im = -3.0 } |] in
  let p = Poly.from_roots roots in
  Array.iter
    (fun r ->
      let v = Poly.eval_complex p r in
      if Complex.norm v > 1e-9 then Alcotest.failf "root not preserved: |p(r)|=%g" (Complex.norm v))
    roots

let test_poly_derivative () =
  let p = Poly.of_coeffs [| 5.0; 1.0; 3.0 |] in
  let p' = Poly.derivative p in
  check_close "d/dx at 2" 13.0 (Poly.eval p' 2.0)

(* --- intervals --------------------------------------------------------- *)

let test_interval_basic () =
  let a = I.make 1.0 3.0 in
  Alcotest.(check bool) "contains" true (I.contains a 2.0);
  Alcotest.(check bool) "not contains" false (I.contains a 4.0);
  check_close "mid" 2.0 (I.mid a);
  check_close "width" 2.0 (I.width a)

let test_interval_reorder () =
  let a = I.make 3.0 1.0 in
  check_close "lo" 1.0 (I.lo a);
  check_close "hi" 3.0 (I.hi a)

let test_interval_div_by_zero_span () =
  match I.div (I.make 1.0 2.0) (I.make (-1.0) 1.0) with
  | None -> ()
  | Some _ -> Alcotest.fail "division by zero-spanning interval should be None"

let test_interval_intersect () =
  (match I.intersect (I.make 0.0 2.0) (I.make 1.0 3.0) with
   | Some r ->
     check_close "lo" 1.0 (I.lo r);
     check_close "hi" 2.0 (I.hi r)
   | None -> Alcotest.fail "expected intersection");
  match I.intersect (I.make 0.0 1.0) (I.make 2.0 3.0) with
  | None -> ()
  | Some _ -> Alcotest.fail "expected disjoint"

let test_interval_nan_rejected () =
  (* [make] is the validating constructor: NaN endpoints must raise rather
     than silently produce an interval that poisons every later bound *)
  Alcotest.check_raises "nan lo" (Invalid_argument "Interval.make: NaN bound") (fun () ->
      ignore (I.make Float.nan 1.0));
  Alcotest.check_raises "nan hi" (Invalid_argument "Interval.make: NaN bound") (fun () ->
      ignore (I.make 0.0 Float.nan));
  (* [of_bounds] is the total variant: NaN collapses to the empty interval *)
  Alcotest.(check bool) "of_bounds nan empty" true (I.is_empty (I.of_bounds Float.nan 1.0));
  Alcotest.(check bool) "of_bounds ok" false (I.is_empty (I.of_bounds 1.0 2.0))

let test_interval_empty_propagates () =
  let e = I.empty and a = I.make 1.0 2.0 in
  Alcotest.(check bool) "empty is empty" true (I.is_empty e);
  Alcotest.(check bool) "add" true (I.is_empty (I.add e a));
  Alcotest.(check bool) "mul" true (I.is_empty (I.mul a e));
  Alcotest.(check bool) "neg" true (I.is_empty (I.neg e));
  Alcotest.(check bool) "ediv num" true (I.is_empty (I.ediv e a));
  Alcotest.(check bool) "sqrt" true (I.is_empty (I.sqrt_ e));
  Alcotest.(check bool) "contains nothing" false (I.contains e 0.0);
  Alcotest.(check bool) "width 0" true (I.width e = 0.0);
  Alcotest.(check bool) "hull absorbs" true (I.hull e a = a);
  Alcotest.(check bool) "subset of all" true (I.subset e a)

let test_interval_ediv_cases () =
  (* Kahan extended division: never raises, never returns NaN bounds *)
  let whole = I.ediv (I.make 1.0 2.0) (I.make (-1.0) 1.0) in
  Alcotest.(check bool) "span -> whole" true
    (I.lo whole = Float.neg_infinity && I.hi whole = Float.infinity);
  Alcotest.(check bool) "zero divisor -> empty" true
    (I.is_empty (I.ediv (I.make 1.0 2.0) (I.point 0.0)));
  (* 0 / nonzero: zero up to outward rounding (one ulp around 0) *)
  let zero_num = I.ediv (I.point 0.0) (I.make 1.0 2.0) in
  Alcotest.(check bool) "0/x ~ 0" true
    (I.contains zero_num 0.0 && I.width zero_num < 1e-300);
  (* 0 / zero-spanning: the quotient set really is {0} *)
  let zero_span = I.ediv (I.point 0.0) (I.make (-1.0) 1.0) in
  Alcotest.(check bool) "0/span = 0" true (I.lo zero_span = 0.0 && I.hi zero_span = 0.0);
  (* divisor pinned at zero on one side: a half-line, sign from numerator *)
  let half = I.ediv (I.make 1.0 2.0) (I.make 0.0 4.0) in
  Alcotest.(check bool) "half-line up" true
    (I.lo half >= 0.25 -. 1e-12 && I.hi half = Float.infinity);
  let nhalf = I.ediv (I.make (-2.0) (-1.0)) (I.make 0.0 4.0) in
  Alcotest.(check bool) "half-line down" true
    (I.lo nhalf = Float.neg_infinity && I.hi nhalf <= -0.25 +. 1e-12);
  (* plain division still outward-contains the true quotient set *)
  let q = I.ediv (I.make 1.0 2.0) (I.make 4.0 8.0) in
  Alcotest.(check bool) "plain" true (I.contains q 0.125 && I.contains q 0.5)

let test_interval_domain_clipping () =
  Alcotest.(check bool) "sqrt of negative -> empty" true
    (I.is_empty (I.sqrt_ (I.make (-4.0) (-1.0))));
  let s = I.sqrt_ (I.make (-4.0) 9.0) in
  Alcotest.(check bool) "sqrt clips lo" true (I.lo s = 0.0 && I.contains s 3.0);
  Alcotest.(check bool) "log of nonpositive -> empty" true
    (I.is_empty (I.log10_ (I.make (-2.0) 0.0)));
  let l = I.log10_ (I.make 0.0 100.0) in
  Alcotest.(check bool) "log spans -inf" true
    (I.lo l = Float.neg_infinity && I.contains l 2.0);
  let e = I.exp_ (I.make (-1.0) 1.0) in
  Alcotest.(check bool) "exp positive" true (I.lo e >= 0.0 && I.contains e (Float.exp 1.0))

let test_interval_powi () =
  let a = I.make (-2.0) 3.0 in
  let sq = I.powi a 2 in
  Alcotest.(check bool) "even power spans zero" true
    (I.lo sq <= 0.0 && I.contains sq 9.0 && I.contains sq 4.0 && not (I.contains sq 10.0));
  let cube = I.powi a 3 in
  Alcotest.(check bool) "odd power monotone" true
    (I.contains cube (-8.0) && I.contains cube 27.0);
  let one = I.powi a 0 in
  Alcotest.(check bool) "zeroth power" true (I.lo one = 1.0 && I.hi one = 1.0)

(* --- stats ------------------------------------------------------------- *)

let test_stats_known () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_close "mean" 5.0 (Stats.mean xs);
  check_close ~eps:1e-6 "stddev" (sqrt (32.0 /. 7.0)) (Stats.stddev xs);
  check_close "median" 4.5 (Stats.percentile xs 50.0);
  check_close "min" 2.0 (Stats.minimum xs);
  check_close "max" 9.0 (Stats.maximum xs)

let test_stats_linear_fit () =
  let pts = Array.init 10 (fun i -> (float_of_int i, (3.0 *. float_of_int i) +. 1.0)) in
  let slope, intercept = Stats.linear_fit pts in
  check_close "slope" 3.0 slope;
  check_close "intercept" 1.0 intercept

let test_stats_geometric_mean () =
  check_close "geomean" 4.0 (Stats.geometric_mean [| 2.0; 8.0 |])

let test_stats_percentile_clamps_and_sorts () =
  (* deliberately unsorted input; out-of-range p clamps to the extremes *)
  let xs = [| 3.0; 1.0; 2.0 |] in
  check_close "p < 0 clamps to minimum" 1.0 (Stats.percentile xs (-10.0));
  check_close "p > 100 clamps to maximum" 3.0 (Stats.percentile xs 250.0);
  check_close "p = 0 is minimum" 1.0 (Stats.percentile xs 0.0);
  check_close "p = 100 is maximum" 3.0 (Stats.percentile xs 100.0);
  check_close "median of unsorted input" 2.0 (Stats.percentile xs 50.0)

(* --- telemetry ---------------------------------------------------------- *)

let test_telemetry_counters () =
  T.reset ();
  Alcotest.(check int) "untouched counter reads 0" 0 (T.counter "a");
  T.count "a";
  T.count "a";
  T.add "b" 5;
  Alcotest.(check int) "count increments" 2 (T.counter "a");
  Alcotest.(check int) "add accumulates" 5 (T.counter "b");
  Alcotest.(check (list (pair string int))) "alist sorted by name"
    [ ("a", 2); ("b", 5) ] (T.counters_alist ());
  T.reset ();
  Alcotest.(check int) "reset clears" 0 (T.counter "a");
  Alcotest.(check (list (pair string int))) "reset empties alist" [] (T.counters_alist ())

let test_telemetry_counters_merge_across_domains () =
  (* counters shard per domain; reads must merge every shard's view and
     reset must clear them all, whatever the job count *)
  List.iter
    (fun jobs ->
      T.reset ();
      ignore
        (Mixsyn_util.Pool.parallel_init ~jobs 40 (fun i ->
             T.count "shard.hits";
             T.add "shard.bytes" i;
             i));
      Alcotest.(check int)
        (Printf.sprintf "count merged at jobs=%d" jobs)
        40 (T.counter "shard.hits");
      Alcotest.(check int)
        (Printf.sprintf "add merged at jobs=%d" jobs)
        (40 * 39 / 2) (T.counter "shard.bytes");
      (* the run itself emits pool.* counters; compare only our own *)
      let ours =
        List.filter (fun (n, _) -> String.length n >= 6 && String.sub n 0 6 = "shard.")
          (T.counters_alist ())
      in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "alist merged at jobs=%d" jobs)
        [ ("shard.bytes", 40 * 39 / 2); ("shard.hits", 40) ]
        ours;
      T.reset ();
      Alcotest.(check int) "reset clears every shard" 0 (T.counter "shard.hits"))
    [ 1; 2; 4 ]

let test_telemetry_spans_nest_and_accumulate () =
  T.reset ();
  T.with_span "outer" (fun () ->
      T.with_span "inner" (fun () -> ());
      T.with_span "inner" (fun () -> ()));
  T.with_span "outer" (fun () -> ());
  (match T.spans () with
   | [ o ] ->
     Alcotest.(check string) "root name" "outer" o.T.span_name;
     Alcotest.(check int) "outer calls accumulate" 2 o.T.calls;
     (match o.T.children with
      | [ i ] ->
        Alcotest.(check string) "child name" "inner" i.T.span_name;
        Alcotest.(check int) "inner calls accumulate" 2 i.T.calls
      | l -> Alcotest.failf "expected one child span, got %d" (List.length l))
   | l -> Alcotest.failf "expected one root span, got %d" (List.length l));
  Alcotest.(check int) "span_calls sums the forest" 2 (T.span_calls "inner");
  if T.span_seconds "outer" < 0.0 then Alcotest.fail "negative span time"

let test_telemetry_spans_on_pool_helpers () =
  (* a helper task inherits the caller's open span: spans its items open
     nest under it instead of forming extra roots *)
  T.reset ();
  T.with_span "outer" (fun () ->
      ignore
        (Mixsyn_util.Pool.parallel_init ~jobs:2 8 (fun i ->
             T.with_span "inner" (fun () -> i))));
  (match T.spans () with
   | [ o ] ->
     Alcotest.(check string) "root name" "outer" o.T.span_name;
     (match o.T.children with
      | [ i ] ->
        Alcotest.(check string) "child name" "inner" i.T.span_name;
        Alcotest.(check int) "every item under outer" 8 i.T.calls
      | l -> Alcotest.failf "expected one child span, got %d" (List.length l))
   | l -> Alcotest.failf "expected one root span, got %d" (List.length l));
  T.reset ()

let test_telemetry_span_exception_safe () =
  T.reset ();
  let result = T.with_span "ok" (fun () -> 41 + 1) in
  Alcotest.(check int) "with_span returns the body's value" 42 result;
  (try T.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "span closed on raise" 1 (T.span_calls "boom");
  (* the stack must have popped: the next span is a sibling root, not a
     child of the raising span *)
  T.with_span "after" (fun () -> ());
  Alcotest.(check int) "three roots" 3 (List.length (T.spans ()));
  T.reset ();
  Alcotest.(check (list pass)) "reset clears spans" [] (T.spans ())

let test_telemetry_report_and_json () =
  T.reset ();
  T.count "hits";
  T.with_span "work" (fun () -> ());
  let r = T.report () in
  let contains needle hay =
    let nl_ = String.length needle and sl = String.length hay in
    let rec scan i = i + nl_ <= sl && (String.sub hay i nl_ = needle || scan (i + 1)) in
    scan 0
  in
  if not (contains "hits" r) then Alcotest.fail "report lacks the counter";
  if not (contains "work" r) then Alcotest.fail "report lacks the span";
  let j = T.to_json () in
  if not (contains "\"hits\"" j && contains "\"work\"" j) then
    Alcotest.fail "json dump lacks entries"

(* --- eval cache --------------------------------------------------------- *)

let test_eval_cache_memoizes () =
  T.reset ();
  let c = EC.create "test.cache" in
  let calls = ref 0 in
  let f k = incr calls; k * 2 in
  Alcotest.(check int) "first lookup computes" 4 (EC.find_or_compute c 2 f);
  Alcotest.(check int) "second lookup replays" 4 (EC.find_or_compute c 2 f);
  Alcotest.(check int) "distinct key computes" 6 (EC.find_or_compute c 3 f);
  Alcotest.(check int) "computation ran once per key" 2 !calls;
  Alcotest.(check int) "hits" 1 (EC.hits c);
  Alcotest.(check int) "misses" 2 (EC.misses c);
  Alcotest.(check int) "length" 2 (EC.length c);
  check_close "hit rate" (1.0 /. 3.0) (EC.hit_rate c);
  Alcotest.(check int) "hits mirrored to telemetry" 1 (T.counter "test.cache.hits");
  Alcotest.(check int) "misses mirrored to telemetry" 2 (T.counter "test.cache.misses");
  (* counts over many keys: 64 first visits, then 64 replays *)
  let spread = EC.create "test.spread" in
  for _ = 1 to 2 do
    for k = 0 to 63 do
      ignore (EC.find_or_compute spread k (fun k -> k))
    done
  done;
  Alcotest.(check int) "misses over 64 keys" 64 (EC.misses spread);
  Alcotest.(check int) "hits over 64 keys" 64 (EC.hits spread);
  Alcotest.(check int) "length over 64 keys" 64 (EC.length spread)

let test_eval_cache_float_array_keys () =
  let c = EC.create "test.veccache" in
  let f (k : float array) = Array.fold_left ( +. ) 0.0 k in
  ignore (EC.find_or_compute c [| 1.0; 2.0 |] f);
  (* a structurally equal but physically distinct array must hit *)
  check_close "structural key equality" 3.0 (EC.find_or_compute c [| 1.0; 2.0 |] f);
  Alcotest.(check int) "hit on equal array" 1 (EC.hits c)

let test_eval_cache_single_flight () =
  (* concurrent first visits of one key run the evaluator exactly once:
     the in-flight marker is planted under the lock before anyone
     computes, so late arrivals block on the flight instead of re-running *)
  let c = EC.create "test.flight" in
  let runs = Atomic.make 0 in
  let f k =
    Atomic.incr runs;
    (* widen the race window so waiters really do arrive mid-flight *)
    for _ = 1 to 2_000_000 do
      Domain.cpu_relax ()
    done;
    k * 7
  in
  let workers =
    Array.init 4 (fun _ -> Domain.spawn (fun () -> EC.find_or_compute c 6 f))
  in
  let results = Array.map Domain.join workers in
  Array.iter (fun v -> Alcotest.(check int) "all see one value" 42 v) results;
  Alcotest.(check int) "evaluator ran once" 1 (Atomic.get runs);
  Alcotest.(check int) "one entry" 1 (EC.length c);
  (* an evaluator that raises caches nothing and releases the waiters *)
  let again = Atomic.make 0 in
  (match EC.find_or_compute c 9 (fun _ -> failwith "boom") with
   | exception Failure _ -> ()
   | _ -> Alcotest.fail "exception must propagate");
  Alcotest.(check int) "failed flight cached nothing" 1 (EC.length c);
  Alcotest.(check int) "retry recomputes" 63
    (EC.find_or_compute c 9 (fun k -> Atomic.incr again; k * 7));
  Alcotest.(check int) "retry ran" 1 (Atomic.get again)

(* --- json --------------------------------------------------------------- *)

module J = Mixsyn_util.Json

let test_json_parse_values () =
  let parse s =
    match J.parse s with
    | Ok v -> v
    | Error msg -> Alcotest.failf "parse %S: %s" s msg
  in
  Alcotest.(check bool) "null" true (parse " null " = J.Null);
  Alcotest.(check bool) "true" true (parse "true" = J.Bool true);
  Alcotest.(check bool) "num" true (parse "-1.5e3" = J.Num (-1500.0));
  Alcotest.(check bool) "string escapes" true
    (parse "\"a\\n\\\"b\\u0041\"" = J.Str "a\n\"bA");
  Alcotest.(check bool) "array" true
    (parse "[1, 2, 3]" = J.Arr [ J.Num 1.0; J.Num 2.0; J.Num 3.0 ]);
  Alcotest.(check bool) "object" true
    (parse "{\"a\": 1, \"b\": [true]}"
     = J.Obj [ ("a", J.Num 1.0); ("b", J.Arr [ J.Bool true ]) ]);
  List.iter
    (fun s ->
      match J.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parse %S must fail" s)
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "tru"; "1 2"; "\"unterminated"; "nan" ]

let test_json_print_roundtrip () =
  let rt v =
    let s = J.to_string v in
    match J.parse s with
    | Ok v' when v' = v -> s
    | Ok _ -> Alcotest.failf "%s did not round-trip" s
    | Error msg -> Alcotest.failf "reparse %s: %s" s msg
  in
  Alcotest.(check string) "canonical object" "{\"a\":1,\"b\":[true,null,\"x\"]}"
    (rt (J.Obj [ ("a", J.Num 1.0); ("b", J.Arr [ J.Bool true; J.Null; J.Str "x" ]) ]));
  Alcotest.(check string) "integral float" "42" (rt (J.Num 42.0));
  Alcotest.(check string) "negative zero keeps its sign" "-0" (rt (J.Num (-0.0)));
  Alcotest.(check string) "shortest float" "0.1" (rt (J.Num 0.1));
  Alcotest.(check string) "string escapes" "\"a\\n\\\"\\\\\"" (rt (J.Str "a\n\"\\"));
  Alcotest.(check string) "non-finite is null" "null" (J.to_string (J.Num Float.nan));
  (* every float must reprint to a string that parses back to the same bits *)
  let rng = Rng.create 99 in
  for _ = 1 to 1000 do
    let x = Rng.uniform rng (-1e9) 1e9 *. (10.0 ** float_of_int (Rng.int rng 18 - 9)) in
    let s = J.float_repr x in
    if float_of_string s <> x then Alcotest.failf "float_repr %s loses %.17g" s x
  done

let test_json_accessors () =
  let v =
    J.Obj [ ("n", J.Num 3.0); ("x", J.Num 2.5); ("s", J.Str "hi"); ("b", J.Bool false) ]
  in
  Alcotest.(check (option int)) "to_int" (Some 3) (Option.bind (J.member "n" v) J.to_int);
  Alcotest.(check (option int)) "to_int non-integral" None
    (Option.bind (J.member "x" v) J.to_int);
  Alcotest.(check (option (float 0.0))) "to_float" (Some 2.5)
    (Option.bind (J.member "x" v) J.to_float);
  Alcotest.(check (option string)) "to_str" (Some "hi")
    (Option.bind (J.member "s" v) J.to_str);
  Alcotest.(check (option bool)) "to_bool" (Some false)
    (Option.bind (J.member "b" v) J.to_bool);
  Alcotest.(check (option string)) "missing member" None
    (Option.bind (J.member "zz" v) J.to_str);
  Alcotest.(check (option string)) "member of non-object" None
    (Option.bind (J.member "a" (J.Num 1.0)) J.to_str)

(* --- cancellation -------------------------------------------------------- *)

module C = Mixsyn_util.Cancel

let test_cancel_token () =
  let t = C.create () in
  Alcotest.(check bool) "fresh token live" false (C.cancelled t);
  C.check t;
  C.cancel t;
  Alcotest.(check bool) "cancelled" true (C.cancelled t);
  (match C.check t with
   | exception C.Cancelled -> ()
   | () -> Alcotest.fail "check of cancelled token must raise");
  let expired = C.create ~timeout_s:0.0 () in
  Alcotest.(check bool) "zero timeout expires" true (C.cancelled expired);
  let live = C.create ~timeout_s:60.0 () in
  Alcotest.(check bool) "future deadline live" false (C.cancelled live)

let test_cancel_ambient_guard () =
  C.guard ();
  (* no ambient token: a no-op *)
  Alcotest.(check bool) "no ambient token" true (C.active () = None);
  let t = C.create () in
  let saw = ref false in
  C.with_token t (fun () ->
      Alcotest.(check bool) "ambient installed" true (C.active () = Some t);
      C.guard ();
      C.cancel t;
      match C.guard () with
      | exception C.Cancelled -> saw := true
      | () -> Alcotest.fail "guard must raise after cancel");
  Alcotest.(check bool) "cancel observed" true !saw;
  Alcotest.(check bool) "ambient restored" true (C.active () = None);
  (* exception safety: the token must not leak out of with_token *)
  (try C.with_token (C.create ()) (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check bool) "restored on raise" true (C.active () = None)

(* --- telemetry rollup ----------------------------------------------------- *)

let test_telemetry_rollup () =
  T.reset ();
  Alcotest.(check (list (pair string int))) "empty" [] (T.top_counters ());
  T.add "small" 1;
  T.add "big" 50;
  T.add "mid" 7;
  Alcotest.(check (list (pair string int))) "sorted by value desc"
    [ ("big", 50); ("mid", 7); ("small", 1) ]
    (T.top_counters ());
  Alcotest.(check (list (pair string int))) "limited" [ ("big", 50) ]
    (T.top_counters ~limit:1 ());
  let line = Format.asprintf "%a" (fun ppf () -> T.pp_rollup ppf ()) () in
  Alcotest.(check string) "one-line rollup" "big=50, mid=7, small=1" line;
  T.reset ();
  Alcotest.(check string) "empty rollup"
    "(no counters)"
    (Format.asprintf "%a" (fun ppf () -> T.pp_rollup ppf ()) ())

(* --- units ------------------------------------------------------------- *)

let test_units_format () =
  Alcotest.(check string) "milli" "2.2 mW" (Units.format 2.2e-3 "W");
  Alcotest.(check string) "micro" "15 uA" (Units.format 15e-6 "A");
  Alcotest.(check string) "zero" "0 F" (Units.format 0.0 "F")

let test_units_db () =
  check_close "db" 40.0 (Units.db 100.0);
  check_close "undb" 100.0 (Units.undb 40.0)

(* --- properties -------------------------------------------------------- *)

let prop_interval_add_contains =
  QCheck.Test.make ~name:"interval add contains pointwise sum" ~count:500
    QCheck.(quad (float_range (-100.) 100.) (float_range 0. 10.)
              (float_range (-100.) 100.) (float_range 0. 10.))
    (fun (a, wa, b, wb) ->
      let ia = I.make a (a +. wa) and ib = I.make b (b +. wb) in
      let x = a +. (wa /. 3.0) and y = b +. (wb /. 2.0) in
      I.contains (I.add ia ib) (x +. y))

let prop_interval_mul_contains =
  QCheck.Test.make ~name:"interval mul contains pointwise product" ~count:500
    QCheck.(quad (float_range (-10.) 10.) (float_range 0. 5.)
              (float_range (-10.) 10.) (float_range 0. 5.))
    (fun (a, wa, b, wb) ->
      let ia = I.make a (a +. wa) and ib = I.make b (b +. wb) in
      let x = a +. (wa /. 2.0) and y = b +. (wb /. 4.0) in
      I.contains (I.mul ia ib) (x *. y))

let prop_interval_ediv_contains =
  QCheck.Test.make ~name:"interval ediv contains pointwise quotient" ~count:500
    QCheck.(quad (float_range (-10.) 10.) (float_range 0. 5.)
              (float_range (-10.) 10.) (float_range 0. 5.))
    (fun (a, wa, b, wb) ->
      let ia = I.make a (a +. wa) and ib = I.make b (b +. wb) in
      let x = a +. (wa /. 2.0) and y = b +. (wb /. 3.0) in
      QCheck.assume (y <> 0.0);
      I.contains (I.ediv ia ib) (x /. y))

let prop_interval_monotone_contains =
  (* sqrt/exp/log/powi over a positive box must enclose every pointwise
     image, outward rounding included *)
  QCheck.Test.make ~name:"interval sqrt/exp/log/powi contain pointwise image" ~count:500
    QCheck.(triple (float_range 0.01 50.) (float_range 0. 10.) (float_range 0. 1.))
    (fun (a, w, frac) ->
      let ia = I.make a (a +. w) in
      let x = a +. (frac *. w) in
      I.contains (I.sqrt_ ia) (sqrt x)
      && I.contains (I.exp_ (I.scale 0.1 ia)) (Float.exp (0.1 *. x))
      && I.contains (I.log10_ ia) (Float.log10 x)
      && I.contains (I.powi ia 3) (x *. x *. x)
      && I.contains (I.powi ia 2) (x *. x))

let prop_poly_add_eval =
  QCheck.Test.make ~name:"poly add is pointwise" ~count:300
    QCheck.(pair (list_of_size (Gen.int_range 1 6) (float_range (-5.) 5.))
              (list_of_size (Gen.int_range 1 6) (float_range (-5.) 5.)))
    (fun (ca, cb) ->
      let pa = Poly.of_coeffs (Array.of_list ca) and pb = Poly.of_coeffs (Array.of_list cb) in
      let s = Poly.add pa pb in
      List.for_all
        (fun x -> close ~eps:1e-9 (Poly.eval s x) (Poly.eval pa x +. Poly.eval pb x))
        [ -2.0; -0.5; 0.0; 1.0; 3.0 ])

let prop_poly_mul_eval =
  QCheck.Test.make ~name:"poly mul is pointwise" ~count:300
    QCheck.(pair (list_of_size (Gen.int_range 1 5) (float_range (-3.) 3.))
              (list_of_size (Gen.int_range 1 5) (float_range (-3.) 3.)))
    (fun (ca, cb) ->
      let pa = Poly.of_coeffs (Array.of_list ca) and pb = Poly.of_coeffs (Array.of_list cb) in
      let m = Poly.mul pa pb in
      List.for_all
        (fun x -> close ~eps:1e-7 (Poly.eval m x) (Poly.eval pa x *. Poly.eval pb x))
        [ -1.5; 0.0; 0.7; 2.0 ])

let prop_matrix_solve_residual =
  QCheck.Test.make ~name:"LU solve has small residual" ~count:100
    QCheck.(int_range 1 10)
    (fun n ->
      let rng = Rng.create (n * 7919) in
      let a, x = random_system rng n in
      let b = Real.mat_vec a x in
      let x' = Real.solve a b in
      let b' = Real.mat_vec a x' in
      Array.for_all (fun ok -> ok) (Array.mapi (fun i u -> close ~eps:1e-8 u b'.(i)) b))

(* --- ascii plot ----------------------------------------------------------- *)

let test_ascii_plot_shapes () =
  let pts = Array.init 50 (fun i -> (float_of_int i, sin (float_of_int i /. 5.0))) in
  let chart = Mixsyn_util.Ascii_plot.line ~width:40 ~height:10 pts in
  let lines = String.split_on_char '\n' chart in
  if List.length lines < 10 then Alcotest.fail "chart too short";
  if not (String.contains chart '*') then Alcotest.fail "no data glyphs"

let test_ascii_plot_multi_legend () =
  let a = [| (0.0, 0.0); (1.0, 1.0) |] and b = [| (0.0, 1.0); (1.0, 0.0) |] in
  let chart = Mixsyn_util.Ascii_plot.multi [ ("up", a); ("down", b) ] in
  List.iter
    (fun needle ->
      let nl_ = String.length needle and sl = String.length chart in
      let rec scan i = i + nl_ <= sl && (String.sub chart i nl_ = needle || scan (i + 1)) in
      if not (scan 0) then Alcotest.failf "legend lacks %s" needle)
    [ "up"; "down" ]

let test_ascii_plot_empty () =
  Alcotest.(check string) "empty series" "(no data)\n" (Mixsyn_util.Ascii_plot.line [||])

let () =
  let qt t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "util"
    [ ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gauss_moments;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent ] );
      ( "matrix",
        [ Alcotest.test_case "solve roundtrip" `Quick test_real_solve_roundtrip;
          Alcotest.test_case "identity" `Quick test_real_identity;
          Alcotest.test_case "singular detected" `Quick test_real_singular;
          Alcotest.test_case "determinant" `Quick test_real_determinant;
          Alcotest.test_case "complex solve" `Quick test_cplx_solve;
          Alcotest.test_case "mat_mul associative" `Quick test_mat_mul_assoc;
          qt prop_matrix_solve_residual ] );
      ( "fmat",
        [ Alcotest.test_case "real bit-exact vs boxed" `Quick test_fmat_real_bitexact;
          Alcotest.test_case "complex bit-exact vs boxed" `Quick test_fmat_cplx_bitexact;
          Alcotest.test_case "scaled pivot threshold" `Quick test_fmat_scaled_pivot;
          Alcotest.test_case "workspace pool reuse" `Quick test_fmat_workspace_reuse ] );
      ( "poly",
        [ Alcotest.test_case "eval" `Quick test_poly_eval;
          Alcotest.test_case "quadratic roots" `Quick test_poly_roots_quadratic;
          Alcotest.test_case "complex roots" `Quick test_poly_roots_complex;
          Alcotest.test_case "from_roots roundtrip" `Quick test_poly_from_roots_roundtrip;
          Alcotest.test_case "derivative" `Quick test_poly_derivative;
          qt prop_poly_add_eval;
          qt prop_poly_mul_eval ] );
      ( "interval",
        [ Alcotest.test_case "basics" `Quick test_interval_basic;
          Alcotest.test_case "reorder" `Quick test_interval_reorder;
          Alcotest.test_case "div by zero-span" `Quick test_interval_div_by_zero_span;
          Alcotest.test_case "intersect" `Quick test_interval_intersect;
          Alcotest.test_case "nan rejected" `Quick test_interval_nan_rejected;
          Alcotest.test_case "empty propagates" `Quick test_interval_empty_propagates;
          Alcotest.test_case "ediv cases" `Quick test_interval_ediv_cases;
          Alcotest.test_case "domain clipping" `Quick test_interval_domain_clipping;
          Alcotest.test_case "powi" `Quick test_interval_powi;
          qt prop_interval_add_contains;
          qt prop_interval_mul_contains;
          qt prop_interval_ediv_contains;
          qt prop_interval_monotone_contains ] );
      ( "stats",
        [ Alcotest.test_case "known values" `Quick test_stats_known;
          Alcotest.test_case "linear fit" `Quick test_stats_linear_fit;
          Alcotest.test_case "geometric mean" `Quick test_stats_geometric_mean;
          Alcotest.test_case "percentile clamps" `Quick test_stats_percentile_clamps_and_sorts ] );
      ( "telemetry",
        [ Alcotest.test_case "counters" `Quick test_telemetry_counters;
          Alcotest.test_case "counters merge across domains" `Quick
            test_telemetry_counters_merge_across_domains;
          Alcotest.test_case "spans nest" `Quick test_telemetry_spans_nest_and_accumulate;
          Alcotest.test_case "spans on pool helpers" `Quick test_telemetry_spans_on_pool_helpers;
          Alcotest.test_case "exception safety" `Quick test_telemetry_span_exception_safe;
          Alcotest.test_case "report and json" `Quick test_telemetry_report_and_json;
          Alcotest.test_case "rollup" `Quick test_telemetry_rollup ] );
      ( "json",
        [ Alcotest.test_case "parse values" `Quick test_json_parse_values;
          Alcotest.test_case "print roundtrip" `Quick test_json_print_roundtrip;
          Alcotest.test_case "accessors" `Quick test_json_accessors ] );
      ( "cancel",
        [ Alcotest.test_case "token" `Quick test_cancel_token;
          Alcotest.test_case "ambient guard" `Quick test_cancel_ambient_guard ] );
      ( "eval-cache",
        [ Alcotest.test_case "memoizes" `Quick test_eval_cache_memoizes;
          Alcotest.test_case "float array keys" `Quick test_eval_cache_float_array_keys;
          Alcotest.test_case "single flight" `Quick test_eval_cache_single_flight ] );
      ( "ascii-plot",
        [ Alcotest.test_case "shapes" `Quick test_ascii_plot_shapes;
          Alcotest.test_case "legend" `Quick test_ascii_plot_multi_legend;
          Alcotest.test_case "empty" `Quick test_ascii_plot_empty ] );
      ( "units",
        [ Alcotest.test_case "format" `Quick test_units_format;
          Alcotest.test_case "db" `Quick test_units_db ] ) ]
