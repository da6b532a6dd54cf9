(** Modified nodal analysis bookkeeping shared by all analyses.

    The unknown vector is [node voltages (ground excluded)] followed by one
    branch current per voltage source, in element order.  A branch current is
    measured flowing into the positive terminal of its source (SPICE
    convention: negative when the source delivers power). *)

type layout = {
  nets : int;                  (** net count including ground *)
  branch_names : string array; (** voltage-source names in element order *)
  branch_tbl : (string, int) Hashtbl.t;
      (** name -> absolute unknown index; first occurrence on duplicates.
          Read-only after {!layout_of}. *)
  size : int;                  (** system dimension *)
}

val layout_of : Mixsyn_circuit.Netlist.t -> layout

val node_index : Mixsyn_circuit.Netlist.net -> int
(** Row/column of a net; -1 denotes ground (not part of the system). *)

val branch_index : layout -> string -> int
(** Absolute index of a voltage source's current unknown — O(1) via the
    precomputed [branch_tbl].
    @raise Not_found *)

(** A converged DC operating point. *)
type op = {
  op_layout : layout;
  x : float array;                              (** solution vector *)
  mos_evals : (Mixsyn_circuit.Netlist.mos * Mos_model.eval) list;
  iterations : int;
}

val voltage : op -> Mixsyn_circuit.Netlist.net -> float
val branch_current : op -> layout:layout -> string -> float

val linear_capacitors :
  Mixsyn_circuit.Tech.t -> Mixsyn_circuit.Netlist.t -> op ->
  (int * int * float) list
(** Every capacitance in the circuit as (net_a, net_b, farads): explicit
    capacitors plus MOS small-signal capacitances at the operating point. *)
