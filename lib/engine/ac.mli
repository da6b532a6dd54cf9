(** Small-signal AC analysis around a DC operating point. *)

type result = {
  freqs : float array;
  solutions : Complex.t array array;  (** [solutions.(k)] is the unknown vector at [freqs.(k)] *)
  ac_layout : Mna.layout;
}

val solve :
  ?tech:Mixsyn_circuit.Tech.t ->
  Mixsyn_circuit.Netlist.t ->
  Mna.op ->
  freqs:float array ->
  result
(** Solves [(G + jωC) x = b] at each frequency, where [G] holds the MOS
    small-signal conductances of the operating point and [b] the AC source
    magnitudes.  [G] and [C] are stamped once into flat read-only planes;
    the whole sweep then runs in one {!Mixsyn_util.Fmat} workspace,
    reloaded in place (re ← G, im ← ωC) and factor/solved per point, so
    the only per-point allocation is the solution vector.  The sweep runs
    inline on the calling domain; [solutions] is in frequency order. *)

val voltage : result -> int -> Mixsyn_circuit.Netlist.net -> Complex.t
(** [voltage r k net] — complex node voltage at frequency index [k]. *)

val magnitude : result -> int -> Mixsyn_circuit.Netlist.net -> float
val phase_deg : result -> int -> Mixsyn_circuit.Netlist.net -> float

val log_sweep : decades_from:float -> decades_to:float -> points_per_decade:int -> float array
(** Logarithmic frequency grid, e.g. [log_sweep ~decades_from:0. ~decades_to:9.
    ~points_per_decade:10] spans 1 Hz to 1 GHz.  The step count is rounded
    to nearest (never truncated), and whenever the sweep is meant to land
    on the top decade the final frequency is exactly [10. ** decades_to]. *)

val build_system :
  Mixsyn_circuit.Tech.t ->
  Mixsyn_circuit.Netlist.t ->
  Mna.op ->
  float array array * float array array * Complex.t array
(** [(g, c, b)] such that the AC system at ω is [(g + jωc) x = b].  Exposed
    for the AWE moment computation and the noise adjoint solver. *)
