(** Small-signal noise analysis by the adjoint method.

    One transposed solve per frequency yields the transfer function from
    every internal noise-current injection point to the designated output,
    so the cost is independent of the number of noise sources.  Sources
    modelled: resistor thermal noise, MOS channel thermal noise and MOS
    flicker noise. *)

type contribution = {
  source_name : string;
  kind : [ `Thermal | `Flicker ];
  psd : float;  (** contribution to the output noise PSD, V²/Hz *)
}

type point = {
  freq : float;
  total_psd : float;  (** output noise PSD, V²/Hz *)
  contributions : contribution list;
}

type result = {
  points : point array;
  integrated_rms : float;  (** sqrt of the PSD integrated over the sweep, V *)
}

val analyze :
  ?tech:Mixsyn_circuit.Tech.t ->
  Mixsyn_circuit.Netlist.t ->
  Mna.op ->
  out:Mixsyn_circuit.Netlist.net ->
  freqs:float array ->
  result
(** One in-place adjoint factor/solve per frequency point, all in one
    {!Mixsyn_util.Fmat} workspace against the once-flattened [G]/[C]
    planes.  The sweep runs inline on the calling domain; [points] is in
    frequency order. *)

val integrate : (float * float) array -> float
(** Trapezoidal integration of a (frequency, PSD) series; returns the
    integral (not its square root). *)
