(** DC operating-point analysis: damped Newton with source stepping.

    This is the oracle every optimization-based synthesis strategy in the
    paper queries; FRIDGE calls it (as part of full SPICE runs) at every
    annealing move, ASTRX/OBLX deliberately avoids it via the dc-free
    formulation — both strategies are implemented on top of this module. *)

exception No_convergence of string

val solve :
  ?tech:Mixsyn_circuit.Tech.t ->
  Mixsyn_circuit.Netlist.t ->
  Mna.op
(** Operating point of the circuit, from a zero start.  Tries a direct
    Newton solve first (at most 200 iterations, {!Mna.gmin} to ground on
    every node), then source stepping (continuation in the source scale),
    then gmin stepping.
    @raise No_convergence when all strategies fail. *)

val power : Mixsyn_circuit.Netlist.t -> Mna.op -> float
(** Total power delivered by the voltage and current sources, watts. *)

val sweep :
  ?tech:Mixsyn_circuit.Tech.t ->
  Mixsyn_circuit.Netlist.t ->
  source:string ->
  values:float array ->
  (float * Mna.op) array
(** DC transfer sweep (the standard .DC analysis): an independent
    {!solve}, from zero, for each value of the named voltage source's DC
    level.
    @raise Not_found when no voltage source has that name.
    @raise No_convergence when a sweep point fails. *)
