(** Modified nodal analysis shared by all analyses: the unknown layout,
    the element stamps and the damped Newton update.

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

val node_voltage : float array -> Mixsyn_circuit.Netlist.net -> float
(** A net's voltage in an unknown vector; 0 for ground. *)

val voltage : op -> Mixsyn_circuit.Netlist.net -> float
val branch_current : op -> layout:layout -> string -> float

val linear_capacitors :
  Mixsyn_circuit.Tech.t -> Mixsyn_circuit.Netlist.t -> op ->
  (int * int * float) list
(** Every positive capacitance between two distinct nets, as (net_a, net_b,
    farads): explicit capacitors, then the MOS small-signal capacitances at
    the operating point. *)

(** {2 Element stamps}

    A stamp adds its entries in one fixed order through a [sink i j v],
    which drops ground rows and columns ([-1]).  Stamps take nets.  Each
    analysis calls them in its own fixed element order, so every float sum
    is reproducible bit for bit. *)

type sink = int -> int -> float -> unit
type net := Mixsyn_circuit.Netlist.net

val stamp_conductance : sink -> net -> net -> float -> unit
(** A conductance, capacitance or trapezoidal companion between two nets. *)

val stamp_vccs : sink -> p:net -> n:net -> cp:net -> cn:net -> float -> unit
(** Current from [p] to [n] through the source, [gm * (v(cp) - v(cn))]. *)

val stamp_branch : sink -> row:int -> net -> net -> unit
(** The ±1 incidence of a voltage source whose branch current is [row]. *)

val stamp_mos : sink -> Mixsyn_circuit.Netlist.mos -> Mos_model.eval -> unit
(** The drain-current Jacobian: into the drain row, negated into the source's. *)

val gmin : float
(** 1e-9 S, to ground on every node, keeps floating gates solvable. *)

val stamp_gmin : Mixsyn_util.Fmat.Real.ws -> layout -> float -> unit

val stamp_newton :
  Mixsyn_circuit.Tech.t -> layout -> Mixsyn_util.Fmat.Real.ws ->
  Mixsyn_circuit.Netlist.element list -> float array ->
  source:(float -> Mixsyn_circuit.Netlist.wave -> float) ->
  on_mos:(Mixsyn_circuit.Netlist.mos -> Mos_model.eval -> unit) -> unit
(** [stamp_newton tech layout ws elements x ~source ~on_mos] adds the
    elements, linearised around the guess [x], into [ws] in element order:
    each independent source valued [source dc wave], each MOS Jacobian with
    its residual current on the right-hand side, capacitors not at all.
    [on_mos] sees every MOS evaluation in element order. *)

val damped_update : Mixsyn_util.Fmat.Real.ws -> float array -> float array -> float
(** [damped_update ws x x_new] solves the system assembled in [ws] into the
    scratch [x_new], moves [x] toward it, scaled so no unknown moves more
    than 0.5 V, and returns the undamped [max |x_new - x|].
    @raise Mixsyn_util.Fmat.Singular when the system is singular. *)
