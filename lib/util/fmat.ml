(* Flat allocation-free LU kernels.

   Everything here mirrors the scalar-level operations of [Matrix.Make]
   exactly: the same Doolittle elimination order, the same partial-pivot
   comparison, stdlib [Complex]'s multiply, Smith's-algorithm divide and
   [Float.hypot] magnitude — inlined on unboxed floats so a steady-state
   factor/solve performs zero OCaml-heap allocation.  Keep the two in lock
   step: the test suite asserts bit-for-bit equality against
   [Matrix.Real]/[Matrix.Cplx], not closeness. *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

exception Singular of int

(* a pivot is acceptable when it clears [rel_tol] times the largest
   magnitude of its column in the original matrix; the absolute floor only
   matters for all-zero columns.  [Matrix.Make.lu_factor] uses the same
   test so the two kernels classify identically. *)
let rel_tol = 1e-14
let abs_floor = 1e-300

let pivot_threshold col_scale = Float.max abs_floor (rel_tol *. col_scale)

let make_buf n : buf =
  let b = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  Bigarray.Array1.fill b 0.0;
  b

let flatten m =
  let rows = Array.length m in
  let cols = if rows = 0 then 0 else Array.length m.(0) in
  let b = make_buf (rows * cols) in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      Bigarray.Array1.unsafe_set b ((i * cols) + j) m.(i).(j)
    done
  done;
  b

module A1 = Bigarray.Array1
module FA = Float.Array

(* ---------------------------------------------------------------- real -- *)

module Real = struct
  type ws = {
    n : int;
    a : buf;                    (* n*n row-major; LU overwrites it *)
    b : FA.t;                   (* right-hand side *)
    perm : int array;
    col_scale : FA.t;           (* per-column max |a| of the original matrix *)
    mutable in_use : bool;
  }

  let create n =
    { n; a = make_buf (n * n); b = FA.make n 0.0; perm = Array.make n 0;
      col_scale = FA.make n 0.0; in_use = false }

  let size ws = ws.n

  let clear ws =
    A1.fill ws.a 0.0;
    FA.fill ws.b 0 ws.n 0.0

  let stamp ws i j v =
    if i >= 0 && j >= 0 then begin
      let k = (i * ws.n) + j in
      A1.set ws.a k (A1.get ws.a k +. v)
    end

  let rhs ws i v = if i >= 0 then FA.set ws.b i (FA.get ws.b i +. v)

  let set ws i j v = A1.set ws.a ((i * ws.n) + j) v
  let get ws i j = A1.get ws.a ((i * ws.n) + j)

  let load ws m =
    let n = ws.n in
    if Array.length m <> n then invalid_arg "Fmat.Real.load: wrong size";
    for i = 0 to n - 1 do
      let row = m.(i) in
      if Array.length row <> n then invalid_arg "Fmat.Real.load: wrong size";
      for j = 0 to n - 1 do
        A1.unsafe_set ws.a ((i * n) + j) (Array.unsafe_get row j)
      done
    done

  let set_rhs ws b =
    if Array.length b < ws.n then invalid_arg "Fmat.Real.set_rhs: too short";
    for i = 0 to ws.n - 1 do
      FA.set ws.b i (Array.unsafe_get b i)
    done

  let swap_rows ws r0 r1 =
    let a = ws.a and n = ws.n in
    for j = 0 to n - 1 do
      let t = A1.unsafe_get a ((r0 * n) + j) in
      A1.unsafe_set a ((r0 * n) + j) (A1.unsafe_get a ((r1 * n) + j));
      A1.unsafe_set a ((r1 * n) + j) t
    done

  let factor ws =
    let a = ws.a and n = ws.n and perm = ws.perm in
    for k = 0 to n - 1 do
      let s = ref 0.0 in
      for i = 0 to n - 1 do
        s := Float.max !s (Float.abs (A1.unsafe_get a ((i * n) + k)))
      done;
      FA.set ws.col_scale k !s;
      perm.(k) <- k
    done;
    for k = 0 to n - 1 do
      let pivot = ref k in
      let best = ref (Float.abs (A1.unsafe_get a ((k * n) + k))) in
      for i = k + 1 to n - 1 do
        let mag = Float.abs (A1.unsafe_get a ((i * n) + k)) in
        if mag > !best then begin
          best := mag;
          pivot := i
        end
      done;
      if !best < pivot_threshold (FA.get ws.col_scale k) then raise (Singular k);
      if !pivot <> k then begin
        swap_rows ws k !pivot;
        let t = perm.(k) in
        perm.(k) <- perm.(!pivot);
        perm.(!pivot) <- t
      end;
      let pv = A1.unsafe_get a ((k * n) + k) in
      for i = k + 1 to n - 1 do
        let f = A1.unsafe_get a ((i * n) + k) /. pv in
        A1.unsafe_set a ((i * n) + k) f;
        if Float.abs f > 0.0 then
          for j = k + 1 to n - 1 do
            A1.unsafe_set a ((i * n) + j)
              (A1.unsafe_get a ((i * n) + j) -. (f *. A1.unsafe_get a ((k * n) + j)))
          done
      done
    done

  let solve ws x =
    if Array.length x < ws.n then invalid_arg "Fmat.Real.solve: result too short";
    let a = ws.a and n = ws.n and perm = ws.perm in
    (* forward substitution: x temporarily holds y *)
    for i = 0 to n - 1 do
      let acc = ref (FA.get ws.b perm.(i)) in
      for j = 0 to i - 1 do
        acc := !acc -. (A1.unsafe_get a ((i * n) + j) *. Array.unsafe_get x j)
      done;
      Array.unsafe_set x i !acc
    done;
    for i = n - 1 downto 0 do
      let acc = ref (Array.unsafe_get x i) in
      for j = i + 1 to n - 1 do
        acc := !acc -. (A1.unsafe_get a ((i * n) + j) *. Array.unsafe_get x j)
      done;
      Array.unsafe_set x i (!acc /. A1.unsafe_get a ((i * n) + i))
    done
end

(* ------------------------------------------------------------- complex -- *)

(* stdlib [Complex] arithmetic on unboxed (re, im) pairs.  The operation
   bodies are transcriptions of complex.ml — change nothing without
   changing [Matrix.Cplx_scalar] to match. *)

module Cplx = struct
  type ws = {
    n : int;
    are : buf;                  (* matrix real plane, n*n row-major *)
    aim : buf;                  (* matrix imaginary plane *)
    bre : FA.t;                 (* right-hand side *)
    bim : FA.t;
    yre : FA.t;                 (* substitution scratch *)
    yim : FA.t;
    perm : int array;
    col_scale : FA.t;
    mutable in_use : bool;
  }

  let create n =
    { n; are = make_buf (n * n); aim = make_buf (n * n);
      bre = FA.make n 0.0; bim = FA.make n 0.0;
      yre = FA.make n 0.0; yim = FA.make n 0.0;
      perm = Array.make n 0; col_scale = FA.make n 0.0; in_use = false }

  let size ws = ws.n

  (* [g]/[c] carry explicit [buf] annotations: without them the kind and
     layout stay polymorphic inside this implementation (only the mli pins
     them), the bigarray primitives fall back to the generic C calls, and
     every element read boxes a float *)
  let load_ac ws ~(g : buf) ~(c : buf) ~omega =
    let n2 = ws.n * ws.n in
    for k = 0 to n2 - 1 do
      A1.unsafe_set ws.are k (A1.unsafe_get g k);
      A1.unsafe_set ws.aim k (omega *. A1.unsafe_get c k)
    done

  let load_ac_transposed ws ~(g : buf) ~(c : buf) ~omega =
    let n = ws.n in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        A1.unsafe_set ws.are ((i * n) + j) (A1.unsafe_get g ((j * n) + i));
        A1.unsafe_set ws.aim ((i * n) + j) (omega *. A1.unsafe_get c ((j * n) + i))
      done
    done

  let set_rhs ws ~re ~im =
    FA.blit re 0 ws.bre 0 ws.n;
    FA.blit im 0 ws.bim 0 ws.n

  let unit_rhs ws k =
    FA.fill ws.bre 0 ws.n 0.0;
    FA.fill ws.bim 0 ws.n 0.0;
    FA.set ws.bre k 1.0

  let swap_rows ws r0 r1 =
    let n = ws.n in
    let swap (a : buf) =
      for j = 0 to n - 1 do
        let t = A1.unsafe_get a ((r0 * n) + j) in
        A1.unsafe_set a ((r0 * n) + j) (A1.unsafe_get a ((r1 * n) + j));
        A1.unsafe_set a ((r1 * n) + j) t
      done
    in
    swap ws.are;
    swap ws.aim

  (* [factor]/[substitute] avoid helper functions and tuple returns on
     purpose: without flambda a float coming back from a local function or
     inside a tuple is boxed, and at thousands of solves per second that
     boxing was most of the AC sweep's allocation.  Local float refs are
     the one safe idiom — the compiler turns non-escaping refs into
     unboxed mutable variables. *)
  let factor ws =
    let are = ws.are and aim = ws.aim and n = ws.n and perm = ws.perm in
    for k = 0 to n - 1 do
      let s = ref 0.0 in
      for i = 0 to n - 1 do
        s :=
          Float.max !s
            (Float.hypot
               (A1.unsafe_get are ((i * n) + k))
               (A1.unsafe_get aim ((i * n) + k)))
      done;
      FA.set ws.col_scale k !s;
      perm.(k) <- k
    done;
    for k = 0 to n - 1 do
      let pivot = ref k in
      let best =
        ref
          (Float.hypot
             (A1.unsafe_get are ((k * n) + k))
             (A1.unsafe_get aim ((k * n) + k)))
      in
      for i = k + 1 to n - 1 do
        let m =
          Float.hypot
            (A1.unsafe_get are ((i * n) + k))
            (A1.unsafe_get aim ((i * n) + k))
        in
        if m > !best then begin
          best := m;
          pivot := i
        end
      done;
      if !best < pivot_threshold (FA.get ws.col_scale k) then raise (Singular k);
      if !pivot <> k then begin
        swap_rows ws k !pivot;
        let t = perm.(k) in
        perm.(k) <- perm.(!pivot);
        perm.(!pivot) <- t
      end;
      let pvr = A1.unsafe_get are ((k * n) + k)
      and pvi = A1.unsafe_get aim ((k * n) + k) in
      for i = k + 1 to n - 1 do
        let xr = A1.unsafe_get are ((i * n) + k)
        and xi = A1.unsafe_get aim ((i * n) + k) in
        (* Smith's division, as in Complex.div *)
        let frr = ref 0.0 and fir = ref 0.0 in
        if Float.abs pvr >= Float.abs pvi then begin
          let r = pvi /. pvr in
          let d = pvr +. (r *. pvi) in
          frr := (xr +. (r *. xi)) /. d;
          fir := (xi -. (r *. xr)) /. d
        end
        else begin
          let r = pvr /. pvi in
          let d = pvi +. (r *. pvr) in
          frr := ((r *. xr) +. xi) /. d;
          fir := ((r *. xi) -. xr) /. d
        end;
        let fr = !frr and fi = !fir in
        A1.unsafe_set are ((i * n) + k) fr;
        A1.unsafe_set aim ((i * n) + k) fi;
        if Float.hypot fr fi > 0.0 then
          for j = k + 1 to n - 1 do
            let mr = A1.unsafe_get are ((k * n) + j)
            and mi = A1.unsafe_get aim ((k * n) + j) in
            (* Complex.mul then Complex.sub, in that order *)
            let pr = (fr *. mr) -. (fi *. mi)
            and pi = (fr *. mi) +. (fi *. mr) in
            A1.unsafe_set are ((i * n) + j) (A1.unsafe_get are ((i * n) + j) -. pr);
            A1.unsafe_set aim ((i * n) + j) (A1.unsafe_get aim ((i * n) + j) -. pi)
          done
      done
    done

  (* forward/back substitution into the scratch vectors; identical scalar
     sequence to [Matrix.Make.lu_solve] *)
  let substitute ws =
    let are = ws.are and aim = ws.aim and n = ws.n and perm = ws.perm in
    let yre = ws.yre and yim = ws.yim in
    for i = 0 to n - 1 do
      let ar = ref (FA.get ws.bre perm.(i)) and ai = ref (FA.get ws.bim perm.(i)) in
      for j = 0 to i - 1 do
        let mr = A1.unsafe_get are ((i * n) + j)
        and mi = A1.unsafe_get aim ((i * n) + j) in
        let xr = FA.unsafe_get yre j and xi = FA.unsafe_get yim j in
        ar := !ar -. ((mr *. xr) -. (mi *. xi));
        ai := !ai -. ((mr *. xi) +. (mi *. xr))
      done;
      FA.unsafe_set yre i !ar;
      FA.unsafe_set yim i !ai
    done;
    for i = n - 1 downto 0 do
      let ar = ref (FA.unsafe_get yre i) and ai = ref (FA.unsafe_get yim i) in
      for j = i + 1 to n - 1 do
        let mr = A1.unsafe_get are ((i * n) + j)
        and mi = A1.unsafe_get aim ((i * n) + j) in
        let xr = FA.unsafe_get yre j and xi = FA.unsafe_get yim j in
        ar := !ar -. ((mr *. xr) -. (mi *. xi));
        ai := !ai -. ((mr *. xi) +. (mi *. xr))
      done;
      let dr = A1.unsafe_get are ((i * n) + i)
      and di = A1.unsafe_get aim ((i * n) + i) in
      if Float.abs dr >= Float.abs di then begin
        let r = di /. dr in
        let d = dr +. (r *. di) in
        FA.unsafe_set yre i ((!ar +. (r *. !ai)) /. d);
        FA.unsafe_set yim i ((!ai -. (r *. !ar)) /. d)
      end
      else begin
        let r = dr /. di in
        let d = di +. (r *. dr) in
        FA.unsafe_set yre i (((r *. !ar) +. !ai) /. d);
        FA.unsafe_set yim i (((r *. !ai) -. !ar) /. d)
      end
    done

  let solve ws x =
    if Array.length x < ws.n then invalid_arg "Fmat.Cplx.solve: result too short";
    substitute ws;
    for i = 0 to ws.n - 1 do
      x.(i) <- { Complex.re = FA.unsafe_get ws.yre i; im = FA.unsafe_get ws.yim i }
    done

  let solve_split ws ~re ~im =
    substitute ws;
    FA.blit ws.yre 0 re 0 ws.n;
    FA.blit ws.yim 0 im 0 ws.n
end

(* ---------------------------------------------- per-domain workspace pool *)

(* One pool per domain keyed by system size, so the evaluator hot loops
   check a workspace out with a DLS read and a hashtable probe — no lock,
   no allocation in the steady state.  A reentrant checkout of a size whose
   pooled workspace is busy falls back to a fresh (unpooled) one. *)

type pools = { real : (int, Real.ws) Hashtbl.t; cplx : (int, Cplx.ws) Hashtbl.t }

let pools : pools Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { real = Hashtbl.create 8; cplx = Hashtbl.create 8 })

let with_real n f =
  let p = Domain.DLS.get pools in
  let ws =
    match Hashtbl.find_opt p.real n with
    | Some ws when not ws.Real.in_use -> ws
    | Some _ -> Real.create n
    | None ->
      let ws = Real.create n in
      Hashtbl.add p.real n ws;
      ws
  in
  ws.Real.in_use <- true;
  Fun.protect ~finally:(fun () -> ws.Real.in_use <- false) (fun () -> f ws)

let with_cplx n f =
  let p = Domain.DLS.get pools in
  let ws =
    match Hashtbl.find_opt p.cplx n with
    | Some ws when not ws.Cplx.in_use -> ws
    | Some _ -> Cplx.create n
    | None ->
      let ws = Cplx.create n in
      Hashtbl.add p.cplx n ws;
      ws
  in
  ws.Cplx.in_use <- true;
  Fun.protect ~finally:(fun () -> ws.Cplx.in_use <- false) (fun () -> f ws)
