(** KOAN-style device placement by simulated annealing ([34,35,36]).

    Items are generated cells (devices, stacks, passives), each with
    alternative geometry variants (fold counts) and free orientation.  The
    annealer explores translation, reorientation, swap, and variant moves —
    the "dynamic folding/reshaping" the paper credits KOAN with — under a
    cost mixing overlap, bounding-box area, net half-perimeter wirelength,
    and symmetry-group violations (matched differential structures must
    mirror about a shared vertical axis). *)

type item = {
  item_name : string;
  variants : Cell.t array;  (** alternative geometries (fold counts) *)
}

type site = {
  variant : int;
  orient : Geom.orientation;
  x : float;
  y : float;
}

type placement = site array

(** Symmetry constraints by item index. *)
type symmetry = {
  mirror_pairs : (int * int) list;  (** must mirror about the common axis *)
  self_symmetric : int list;        (** must sit on the axis *)
}

val no_symmetry : symmetry

val realized : item array -> placement -> Cell.t list
(** The placed cells (transformed and translated). *)

val cost : ?rules:Rules.t -> item array -> symmetry -> placement -> float
(** The weighted scalar the annealer minimizes. *)

val cost_parts :
  ?rules:Rules.t -> item array -> symmetry -> placement ->
  float * float * float * float
(** (overlap area, bbox area, wirelength, symmetry violation) — raw terms. *)

(** Incremental cost evaluator — the annealer's hot path.

    An [Eval.t] owns one placement in flat arrays (per-cell footprint and
    halo-bloated boxes, per-net HPWL bounds over precomputed transformed
    pin offsets) and evaluates a tentative move by recomputing only what
    the move touches, in O(cells on the affected nets + n) flops with no
    allocation — instead of the O(n^2) full-geometry rebuild the
    per-placement {!cost_parts} pays.  Every cached quantity is recomputed
    with arithmetic identical to a from-scratch build, so after {e any}
    sequence of moves/commits/reverts the evaluator's state — and hence
    {!Eval.cost_parts} — is bit-equal to a fresh evaluator on the same
    placement.  One evaluator per annealing chain; instances share only
    immutable tables and are never thread-safe individually. *)
module Eval : sig
  type t

  val create : ?rules:Rules.t -> item array -> symmetry -> placement -> t
  (** Build tables and state for this placement.
      @raise Invalid_argument on an empty item set or length mismatch. *)

  val cost_parts : t -> float * float * float * float
  (** Raw terms of the current placement, summed in a fixed order
      (overlap row-major over index pairs, nets ascending by id). *)

  val cost : t -> float
  (** The weighted scalar the annealer minimizes. *)

  val set_site : t -> int -> site -> float
  (** Tentatively re-site cell [i]; returns the exact weighted cost delta.
      Must be resolved by {!commit} or {!revert} before the next move.
      @raise Invalid_argument while another move is pending. *)

  val swap_positions : t -> int -> int -> float
  (** Tentatively exchange the positions of two cells (variants and
      orientations stay); returns the weighted delta.
      @raise Invalid_argument while a move is pending or when [i = j]. *)

  val commit : t -> unit
  (** Accept the pending move. *)

  val revert : t -> unit
  (** Undo the pending move exactly (no-op when none is pending). *)

  val remember : t -> unit
  (** Snapshot the current placement (the annealer's best-seen). *)

  val recall : t -> unit
  (** Restore the snapshot, discarding any pending move. *)

  val placement : t -> placement
  (** The current placement, as ordinary sites. *)
end

val place :
  ?rules:Rules.t ->
  ?schedule:Mixsyn_opt.Anneal.schedule ->
  ?seed:int ->
  ?restarts:int ->
  ?jobs:int ->
  item array ->
  symmetry ->
  placement
(** Anneal from a spread-out initial placement.  With [restarts > 1]
    (default 1) independent chains run concurrently on the
    {!Mixsyn_util.Pool} via {!Mixsyn_opt.Anneal.minimize_multistart}
    and the best placement wins; the result depends only on [seed] and
    [restarts], never on [jobs]. *)

val overlap_free : ?rules:Rules.t -> item array -> placement -> bool
(** True geometric (halo-free) overlap freedom. *)

val wirelength : item array -> placement -> float
(** Total half-perimeter wirelength over all nets. *)
