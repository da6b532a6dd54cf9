(** Allocation-free dense linear-algebra kernels on flat [Bigarray] storage.

    The functorized {!Matrix} solvers allocate a boxed matrix copy, a boxed
    intermediate per scalar operation and fresh result vectors on every
    factor/solve — three orders of magnitude more garbage than the answer
    needs.  Inside the evaluator hot loops (one complex solve per frequency
    point, one real solve per Newton iteration) that garbage serializes
    every domain on the stop-the-world minor collector and turns the pool's
    parallelism into a slowdown.

    [Fmat] keeps each linear system in caller-provided, reusable
    {e workspaces}: row-major [float64] bigarrays for the matrix (split
    re/im planes for the complex kernel), [Float.Array]s for the right-hand
    side and scratch vectors, and an [int array] permutation.  Factor and
    solve run fully in place; a steady-state factor+solve allocates nothing
    on the OCaml heap.

    Both kernels perform {e exactly} the scalar operations of
    [Matrix.Make]'s Doolittle LU with partial pivoting — same operation
    order, same pivot comparison ([Float.hypot] magnitudes for complex),
    same Smith's-algorithm complex division — so results are bit-for-bit
    identical to [Matrix.Real] / [Matrix.Cplx] on the same system.  The
    property tests in [test_util.ml] hold this equivalence exactly, not
    within a tolerance.

    This is the only LU the library runs: DC Newton, AC and noise sweeps,
    transient Newton ([Tran]), AWE moments and the Padé
    Hankel solve, and the power-grid DC solve all use these workspaces.
    [Matrix] survives only as the boxed oracle the tests compare
    against. *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

exception Singular of int
(** Raised by the factorizations when no acceptable pivot exists in some
    column [k].  The singularity test is {e scaled}: a pivot candidate is
    rejected when its magnitude is below [1e-14] times the largest
    magnitude of the column in the {e original} matrix (with an absolute
    floor of [1e-300]), so well-conditioned but tiny-valued systems (pF/nS
    stamps) factor fine while structurally singular ones are caught instead
    of producing roundoff garbage.  {!Matrix.Make} applies the same test
    and raises this same exception. *)

val pivot_threshold : float -> float
(** [pivot_threshold col_scale] — the smallest acceptable pivot magnitude
    for a column whose largest original-matrix magnitude is [col_scale]:
    [max 1e-300 (1e-14 *. col_scale)].  Shared with {!Matrix.Make} so the
    boxed and flat kernels classify singularity identically. *)

(** Real [n*n] systems: [A x = b]. *)
module Real : sig
  type ws
  (** A reusable workspace for systems of one fixed size: the matrix, the
      right-hand side, the permutation and the solve scratch. *)

  val create : int -> ws
  (** [create n] — a workspace for [n*n] systems, zero-initialized. *)

  val size : ws -> int

  val clear : ws -> unit
  (** Zero the matrix and right-hand side (not needed after [create]). *)

  val stamp : ws -> int -> int -> float -> unit
  (** [stamp ws i j v] adds [v] to [A.(i).(j)].  Negative indices are
      ignored — the MNA convention that ground is row/column [-1]. *)

  val rhs : ws -> int -> float -> unit
  (** [rhs ws i v] adds [v] to [b.(i)]; negative [i] is ignored. *)

  val set : ws -> int -> int -> float -> unit
  (** [set ws i j v] overwrites [A.(i).(j)] (indices must be valid). *)

  val get : ws -> int -> int -> float

  val load : ws -> float array array -> unit
  (** [load ws m] overwrites the matrix with the square [m] (of size
      [size ws]), for callers that already hold a dense system. *)

  val set_rhs : ws -> float array -> unit
  (** [set_rhs ws b] overwrites the right-hand side with the first
      [size ws] entries of [b] and leaves the matrix, factored or not,
      alone: after one {!factor}, repeated [set_rhs] + {!solve} pairs
      back-substitute against the same LU (the AWE moment recurrence). *)

  val factor : ws -> unit
  (** LU-factor the matrix in place (destroys it).
      @raise Singular when a pivot column has no acceptable pivot. *)

  val solve : ws -> float array -> unit
  (** [solve ws x] writes the solution of the factored system against the
      workspace right-hand side into [x] (length [size ws]).  [factor] must
      have run since the matrix was last modified.  Allocates nothing. *)
end

(** Complex [n*n] systems [(G + jωC) x = b], stored as split re/im planes. *)
module Cplx : sig
  type ws

  val create : int -> ws
  val size : ws -> int

  val load_ac : ws -> g:buf -> c:buf -> omega:float -> unit
  (** Load the AC system matrix: [re <- G], [im <- omega * C], where [g]
      and [c] are row-major [n*n] bigarrays.  The whole per-frequency matrix
      refresh is these two in-place rescales — no allocation. *)

  val load_ac_transposed : ws -> g:buf -> c:buf -> omega:float -> unit
  (** As {!load_ac} but loads [Aᵀ] — the adjoint system of noise analysis. *)

  val set_rhs : ws -> re:Float.Array.t -> im:Float.Array.t -> unit
  (** Copy a right-hand side into the workspace (overwrites). *)

  val unit_rhs : ws -> int -> unit
  (** [unit_rhs ws k] sets the right-hand side to the unit vector [e_k]. *)

  val factor : ws -> unit
  (** In-place complex LU with partial pivoting on [Float.hypot] pivot
      magnitudes — bit-identical to [Matrix.Cplx.lu_factor].
      @raise Singular as {!Real.factor}. *)

  val solve : ws -> Complex.t array -> unit
  (** Solve against the workspace right-hand side, writing boxed complex
      results into [x] — the only allocation of a steady-state solve is the
      caller's result array. *)

  val solve_split : ws -> re:Float.Array.t -> im:Float.Array.t -> unit
  (** As {!solve} but writes into unboxed split re/im arrays, for callers
      that only consume magnitudes. *)
end

val flatten : float array array -> buf
(** [flatten m] copies a rectangular [float array array] into a fresh
    row-major bigarray — done once per sweep to set up the shared read-only
    [G]/[C] planes. *)

val with_real : int -> (Real.ws -> 'a) -> 'a
(** [with_real n f] runs [f] with a size-[n] real workspace drawn from this
    domain's workspace pool ([Domain.DLS], one pool per domain, keyed by
    size) so steady-state use allocates nothing and never contends on a
    lock.  Reentrant calls of the same size get a fresh workspace. *)

val with_cplx : int -> (Cplx.ws -> 'a) -> 'a
(** Complex counterpart of {!with_real}. *)
