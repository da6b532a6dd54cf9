(** Asymptotic Waveform Evaluation (Pillage & Rohrer [61]).

    Computes the first [2q] moments of a linear(ised) network by repeated
    back-substitution on a single LU factorisation of G, then matches them
    with a [q]-pole Padé approximant.  The result is a pole/residue transfer
    function that evaluates in O(q) — the fast electrical oracle behind
    ASTRX/OBLX's AC evaluation and RAIL's power-grid analysis.

    Moments are frequency-scaled before the Hankel solve to tame the
    notorious ill-conditioning; if the solve is still singular the order is
    reduced until it succeeds. *)

type tf = {
  poles : Complex.t array;
  residues : Complex.t array;
  moments : float array;   (** the raw moments m_0 .. m_{2q-1} *)
  order : int;             (** the order actually achieved *)
}

val moments :
  g:float array array -> c:float array array -> b:float array -> out:int ->
  count:int -> float array
(** [moments ~g ~c ~b ~out ~count] returns m_0..m_{count-1} of the transfer
    from source vector [b] to unknown [out], where the network is
    [(G + sC) x = b].  G is factored once in a pooled {!Mixsyn_util.Fmat}
    workspace and each moment costs one back-substitution.
    @raise Mixsyn_util.Fmat.Singular when G is singular — the same
    exception as [Mixsyn_util.Matrix.Real.Singular]. *)

val pade : float array -> order:int -> tf
(** Match the given moments with [order] poles (order reduced on numerical
    failure).  @raise Failure when even order 1 fails. *)

val of_network :
  g:float array array -> c:float array array -> b:float array -> out:int ->
  order:int -> tf
(** {!moments} then {!pade}.
    @raise Mixsyn_util.Fmat.Singular when G is singular.
    @raise Failure when no Padé order succeeds. *)

val of_circuit :
  ?tech:Mixsyn_circuit.Tech.t ->
  Mixsyn_circuit.Netlist.t ->
  Mixsyn_engine.Mna.op ->
  out:Mixsyn_circuit.Netlist.net ->
  order:int ->
  tf
(** AWE of the linearised circuit seen from its AC sources.  Raises as
    {!of_network}. *)

val eval : tf -> Complex.t -> Complex.t
(** H(s) = sum residues/(s - poles). *)

val magnitude : tf -> float -> float
(** |H(j 2 pi f)|. *)

val impulse_response : tf -> float -> float
(** h(t) = sum k_i exp(p_i t) (real part). *)

val step_response : tf -> float -> float
(** Integral of the impulse response from 0 to t. *)

val dominant_pole : tf -> Complex.t option
(** Stable pole with the smallest magnitude, if any. *)

val stable : tf -> bool
(** All poles strictly in the left half plane. *)

val stable_part : tf -> tf
(** Drop right-half-plane poles — the standard guard against the spurious
    unstable poles high-order Padé approximants produce.  Sound whenever the
    dropped residues are small; callers should validate the resulting
    response. *)
