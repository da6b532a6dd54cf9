(** Dense matrices with LU factorisation, generic over the scalar field.

    A boxed functor over {!SCALAR} with instantiations {!Real} and
    {!Cplx}.  No library analysis solves with it any more: every LU runs on
    the flat {!Fmat} kernels, and this module is the reference they are
    tested against bit for bit. *)

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
  (** Modulus used for pivot selection. *)

  val pp : Format.formatter -> t -> unit
end

module Make (S : SCALAR) : sig
  type mat = S.t array array
  type vec = S.t array

  val create : int -> int -> mat
  (** Zero-filled [rows] x [cols] matrix. *)

  val identity : int -> mat
  val copy : mat -> mat
  val dims : mat -> int * int
  val add_entry : mat -> int -> int -> S.t -> unit
  (** [add_entry m i j v] performs [m.(i).(j) <- m.(i).(j) + v] (MNA stamping). *)

  val mat_vec : mat -> vec -> vec
  val mat_mul : mat -> mat -> mat
  val transpose : mat -> mat
  val scale : S.t -> mat -> mat
  val add_mat : mat -> mat -> mat

  type lu
  (** LU factorisation with partial pivoting. *)

  exception Singular of int
  (** Raised with the offending pivot column when factorisation fails.
      This is {!Fmat.Singular} itself (the implementation rebinds it), so
      [Matrix.Real.Singular], [Matrix.Cplx.Singular] and [Fmat.Singular]
      handlers are interchangeable. *)

  val lu_factor : mat -> lu
  val lu_solve : lu -> vec -> vec
  val solve : mat -> vec -> vec
  (** [solve a b] is [lu_solve (lu_factor a) b] — destructive on neither. *)

  val determinant : mat -> S.t
  val pp : Format.formatter -> mat -> unit
end

module Real_scalar : SCALAR with type t = float
module Cplx_scalar : SCALAR with type t = Complex.t

module Real : module type of Make (Real_scalar)
module Cplx : module type of Make (Cplx_scalar)
