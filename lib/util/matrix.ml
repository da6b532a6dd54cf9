module type SCALAR = sig
  type t

  val zero : t
  val one : t
  val of_float : float -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val neg : t -> t
  val magnitude : t -> float
  val pp : Format.formatter -> t -> unit
end

module Make (S : SCALAR) = struct
  type mat = S.t array array
  type vec = S.t array

  let create rows cols = Array.make_matrix rows cols S.zero

  let identity n =
    let m = create n n in
    for i = 0 to n - 1 do
      m.(i).(i) <- S.one
    done;
    m

  let copy m = Array.map Array.copy m

  let dims m = (Array.length m, if Array.length m = 0 then 0 else Array.length m.(0))

  let add_entry m i j v = m.(i).(j) <- S.add m.(i).(j) v

  let mat_vec m v =
    let rows, cols = dims m in
    Array.init rows (fun i ->
        let acc = ref S.zero in
        for j = 0 to cols - 1 do
          acc := S.add !acc (S.mul m.(i).(j) v.(j))
        done;
        !acc)

  let mat_mul a b =
    let ra, ca = dims a and _, cb = dims b in
    let m = create ra cb in
    for i = 0 to ra - 1 do
      for k = 0 to ca - 1 do
        let aik = a.(i).(k) in
        for j = 0 to cb - 1 do
          m.(i).(j) <- S.add m.(i).(j) (S.mul aik b.(k).(j))
        done
      done
    done;
    m

  let transpose m =
    let rows, cols = dims m in
    Array.init cols (fun j -> Array.init rows (fun i -> m.(i).(j)))

  let scale s m = Array.map (Array.map (S.mul s)) m

  let add_mat a b =
    let rows, cols = dims a in
    let m = create rows cols in
    for i = 0 to rows - 1 do
      for j = 0 to cols - 1 do
        m.(i).(j) <- S.add a.(i).(j) b.(i).(j)
      done
    done;
    m

  type lu = { lu_mat : mat; perm : int array; sign : bool }

  (* one exception for both kernels, so a handler written against either
     catches a singular system from both *)
  exception Singular = Fmat.Singular

  (* Doolittle LU with partial pivoting; O(n^3), fine for the matrix sizes an
     analog cell or power grid produces (tens to low thousands of nodes).

     The singularity test is scaled: a pivot must clear [Fmat.rel_tol]
     times the largest magnitude of its column in the *original* matrix
     (absolute floor for all-zero columns), so well-conditioned systems
     built from tiny stamps (pF capacitances, nS conductances) factor fine
     while structurally singular ones raise [Singular] instead of
     eliminating down to roundoff garbage.  [Fmat]'s flat kernels apply
     the identical test — keep them in lock step. *)
  let lu_factor a =
    let n, cols = dims a in
    assert (n = cols);
    let m = copy a in
    let perm = Array.init n (fun i -> i) in
    let sign = ref true in
    let col_scale =
      Array.init n (fun k ->
          let s = ref 0.0 in
          for i = 0 to n - 1 do
            s := Float.max !s (S.magnitude a.(i).(k))
          done;
          !s)
    in
    for k = 0 to n - 1 do
      let pivot = ref k in
      let best = ref (S.magnitude m.(k).(k)) in
      for i = k + 1 to n - 1 do
        let mag = S.magnitude m.(i).(k) in
        if mag > !best then begin
          best := mag;
          pivot := i
        end
      done;
      if !best < Fmat.pivot_threshold col_scale.(k) then raise (Singular k);
      if !pivot <> k then begin
        let tmp = m.(k) in
        m.(k) <- m.(!pivot);
        m.(!pivot) <- tmp;
        let tp = perm.(k) in
        perm.(k) <- perm.(!pivot);
        perm.(!pivot) <- tp;
        sign := not !sign
      end;
      let pivot_value = m.(k).(k) in
      for i = k + 1 to n - 1 do
        let factor = S.div m.(i).(k) pivot_value in
        m.(i).(k) <- factor;
        if S.magnitude factor > 0.0 then
          for j = k + 1 to n - 1 do
            m.(i).(j) <- S.sub m.(i).(j) (S.mul factor m.(k).(j))
          done
      done
    done;
    { lu_mat = m; perm; sign = !sign }

  let lu_solve { lu_mat = m; perm; sign = _ } b =
    let n = Array.length perm in
    let y = Array.make n S.zero in
    for i = 0 to n - 1 do
      let acc = ref b.(perm.(i)) in
      for j = 0 to i - 1 do
        acc := S.sub !acc (S.mul m.(i).(j) y.(j))
      done;
      y.(i) <- !acc
    done;
    let x = Array.make n S.zero in
    for i = n - 1 downto 0 do
      let acc = ref y.(i) in
      for j = i + 1 to n - 1 do
        acc := S.sub !acc (S.mul m.(i).(j) x.(j))
      done;
      x.(i) <- S.div !acc m.(i).(i)
    done;
    x

  let solve a b = lu_solve (lu_factor a) b

  let determinant a =
    match lu_factor a with
    | { lu_mat = m; perm; sign } ->
      let n = Array.length perm in
      let det = ref (if sign then S.one else S.neg S.one) in
      for i = 0 to n - 1 do
        det := S.mul !det m.(i).(i)
      done;
      !det
    | exception Singular _ -> S.zero

  let pp ppf m =
    let rows, _ = dims m in
    for i = 0 to rows - 1 do
      Format.fprintf ppf "[ ";
      Array.iter (fun v -> Format.fprintf ppf "%a " S.pp v) m.(i);
      Format.fprintf ppf "]@\n"
    done
end

module Real_scalar = struct
  type t = float

  let zero = 0.0
  let one = 1.0
  let of_float x = x
  let add = ( +. )
  let sub = ( -. )
  let mul = ( *. )
  let div = ( /. )
  let neg x = -.x
  let magnitude = Float.abs
  let pp ppf x = Format.fprintf ppf "%g" x
end

module Cplx_scalar = struct
  type t = Complex.t

  let zero = Complex.zero
  let one = Complex.one
  let of_float x = { Complex.re = x; im = 0.0 }
  let add = Complex.add
  let sub = Complex.sub
  let mul = Complex.mul
  let div = Complex.div
  let neg = Complex.neg
  let magnitude = Complex.norm
  let pp ppf c = Format.fprintf ppf "(%g%+gi)" c.Complex.re c.Complex.im
end

module Real = Make (Real_scalar)
module Cplx = Make (Cplx_scalar)
