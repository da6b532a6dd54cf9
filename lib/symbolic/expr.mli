(** Sparse multivariate polynomials in named circuit symbols and the Laplace
    variable [s] — the term representation of the ISAAC symbolic simulator.

    A term is [coeff * s^s_pow * prod symbols^powers].  A polynomial is a
    normalised term list, and the type is private so that only this module
    builds one.  The invariant: terms are sorted by s-power, then by
    monomial (names by bytes, then powers, a shorter prefix first); no two
    terms share that key; and no coefficient is zero.  Every operation
    returns a normalised list and relies on its inputs being one. *)

type mono = (string * int) list
(** Symbol powers, sorted by name, powers >= 1. *)

type term = { coeff : float; mono : mono; s_pow : int }

type t = private term list

val of_terms : term list -> t
(** Normalise any term list: sort stably by key, sum the coefficients of
    equal keys left to right, and drop the terms whose sum is zero.  Costs
    a sort. *)

val zero : t
val one : t
val const : float -> t
val sym : string -> t
val s : t
(** The Laplace variable. *)

val s_times : int -> t -> t
(** Multiply by s^k. *)

val add : t -> t -> t
(** One merge of the two sorted lists, linear in their total length.  On
    equal keys [a]'s coefficient comes first in the sum, and a sum of
    exactly zero drops the term — the result of {!of_terms} on [a @ b]. *)

val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
(** Sorts the products, so duplicate products are summed in the order
    they are generated: each term of [a] times each term of [b]. *)

val scale : float -> t -> t
(** Drops a term whose product underflows to zero. *)

val filteri : (int -> term -> bool) -> t -> t
(** The terms a predicate on (position, term) keeps, in order. *)

val is_zero : t -> bool
val term_count : t -> int

val degree_s : t -> int
(** Highest power of [s]. *)

val by_s_power : t -> (int * t) list
(** Split into (s-power, s-free polynomial) groups, ascending; one pass. *)

val eval_mono : (string -> float) -> term -> float
(** Numeric value of a term's coefficient times its symbol product ([s]
    excluded). *)

val eval : (string -> float) -> t -> Complex.t -> Complex.t
(** Substitute symbol values and a complex [s]:
    [eval_numeric (numeric value p) s]. *)

type numeric = private {
  values : Float.Array.t;  (** {!eval_mono} of each term, in term order *)
  starts : int array;
      (** the terms with [s^k] are those from [starts.(k)] to
          [starts.(k + 1) - 1]; the length is {!degree_s} + 2 *)
}
(** A polynomial with its symbols substituted: one value per term. *)

val numeric : (string -> float) -> t -> numeric
(** Evaluate each term's {!eval_mono} once. *)

val eval_numeric : numeric -> Complex.t -> Complex.t
(** The polynomial at a complex [s], summed term by term in term order
    with [s^k] built by repeated [Complex.mul]; evaluating at many
    frequencies re-evaluates no symbol. *)

val eval_s_coeffs : (string -> float) -> t -> float array
(** Numeric coefficient of each s-power, index = power. *)

val symbols : t -> string list
(** Sorted list of the distinct symbols appearing in the polynomial ([s]
    excluded). *)

val eval_mono_interval :
  (string -> Mixsyn_util.Interval.t) -> term -> Mixsyn_util.Interval.t
(** Interval analogue of {!eval_mono}: for any symbol valuation [v] with
    [v name] in [value name] for every symbol, [eval_mono v t] lies in the
    result. *)

val eval_s_coeffs_interval :
  (string -> Mixsyn_util.Interval.t) -> t -> Mixsyn_util.Interval.t array
(** Interval analogue of {!eval_s_coeffs}, with the same enclosure
    guarantee per coefficient. *)

val pp : Format.formatter -> t -> unit
