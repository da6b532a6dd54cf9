(** Transient analysis: fixed-step trapezoidal integration with Newton
    iteration at each timestep.

    Capacitances are linearised around the DC operating point (explicit
    capacitors exactly, MOS capacitances by region), which is accurate for
    the mostly-linear signal paths the benchmarks exercise (pulse shapers,
    power grids) and adequate for amplifier settling estimates. *)

type result = {
  times : float array;
  samples : float array array;  (** [samples.(k)] is the unknown vector at [times.(k)] *)
  tr_layout : Mna.layout;
}

val solve :
  ?tech:Mixsyn_circuit.Tech.t ->
  Mixsyn_circuit.Netlist.t ->
  Mna.op ->
  t_stop:float ->
  dt:float ->
  result
(** [solve nl op ~t_stop ~dt] integrates from the operating point [op] in
    fixed steps of [dt].  Each Newton iteration re-stamps the whole system
    into one flat {!Mixsyn_util.Fmat} workspace and solves it in place.  A
    step whose Newton loop has not converged after 50 iterations is
    accepted as is.  Per call it adds to the counters [tran.solves],
    [tran.newton_iterations] and [tran.newton_nonconverged] (steps that
    hit the iteration cap).
    @raise Mixsyn_util.Fmat.Singular when a step's system is singular —
    the same exception as [Mixsyn_util.Matrix.Real.Singular]. *)

val voltage : result -> int -> Mixsyn_circuit.Netlist.net -> float

val waveform : result -> Mixsyn_circuit.Netlist.net -> (float * float) array
(** (time, voltage) samples of one net. *)

val peak : (float * float) array -> float * float
(** (time, value) of the sample with the largest absolute value. *)

val first_crossing : (float * float) array -> level:float -> float option
(** First time the waveform crosses [level], by linear interpolation. *)

val settling_time :
  (float * float) array -> final:float -> tolerance:float -> float option
(** Last time the waveform leaves the ±[tolerance] band around [final]. *)
