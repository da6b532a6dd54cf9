(** The Table 1 experiment: synthesis of a particle-detector front-end
    (charge-sensitive amplifier + 4-stage pulse shaper) and comparison with
    an expert manual design.

    Metrics, with Table 1's names:
    - [peaking_time_s]   — time from charge injection to the shaper peak;
    - [counting_rate_hz] — 1 / (time for the pulse to return within 1 % of
      its peak), the rate at which pulses stay distinguishable;
    - [enc_electrons]    — equivalent noise charge;
    - [gain_v_per_fc]    — peak output voltage per femtocoulomb;
    - [swing_v]          — symmetric output range;
    - [power_w], [area_m2] — the minimisation objectives. *)

type metrics = Spec.performance

val measure :
  ?tech:Mixsyn_circuit.Tech.t ->
  ?config:Mixsyn_circuit.Detector.config ->
  ?use_transient:bool ->
  Mixsyn_circuit.Detector.sizing ->
  metrics option
(** Full measurement of one sizing.  The pulse shape comes from an order-8
    AWE model of the linearised front-end by default; [use_transient] runs
    the trapezoidal engine instead (slower, used for final verification).
    [None] when the bias point fails, when the AWE or transient system is
    singular, or when no pulse can be measured. *)

val specs : Spec.t list
(** The Table 1 specification column. *)

val objectives : Spec.objective list
(** Minimise power, then area. *)

val manual : Mixsyn_circuit.Detector.sizing
(** The expert baseline (Table 1's "manual" column). *)

type synthesis = {
  sizing : Mixsyn_circuit.Detector.sizing;
  metrics : metrics;
  evaluations : int;
  elapsed_s : float;
  meets : bool;
}

val synthesize : ?tech:Mixsyn_circuit.Tech.t -> ?seed:int -> ?moves:int -> unit -> synthesis
(** AMGIE-style automatic sizing: annealing + simplex polish against
    {!specs}, minimising {!objectives}. *)

(** One row of the reproduced Table 1. *)
type row = {
  metric : string;
  spec_text : string;
  paper_manual : string;
  paper_synthesis : string;
  ours_manual : string;
  ours_synthesis : string;
}

val table1 : ?tech:Mixsyn_circuit.Tech.t -> ?seed:int -> ?moves:int -> unit -> row list

val pp_rows : Format.formatter -> row list -> unit
