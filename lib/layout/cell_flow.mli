(** Cell-level layout flows — the Fig. 2 experiment.

    {!koan} is the macrocell-style automatic flow: stack extraction,
    annealing placement with symmetry constraints and fold variants, maze
    routing with net classes, parasitic extraction.  {!procedural} is the
    module-generation baseline ([32], the Philips-style practice [5]): a
    fixed row recipe, standing in for the paper's four manual layouts (four
    recipe styles give four baseline layouts). *)

type report = {
  flow_name : string;
  placed : Cell.t list;
  route : Maze_router.result;
  area_m2 : float;        (** bounding box of cells and wiring *)
  wirelength_m : float;
  vias : int;
  complete : bool;        (** all signal nets routed *)
  sensitive_coupling_f : float;
      (** coupling capacitance seen by [Sensitive] nets *)
  parasitics : Extract.net_parasitics list;
}

val classify_net : string -> Maze_router.net_class
(** Heuristic net classes: differential inputs and designated sensitive
    nets are [Sensitive]; supplies, outputs and clocks are [Noisy]. *)

val koan :
  ?seed:int ->
  ?coupling_budgets:(string * float) list ->
  ?restarts:int ->
  Mixsyn_circuit.Netlist.t ->
  report
(** [coupling_budgets] activates ROAD-style parasitic-bounded routing for
    the named nets.  [restarts] (default 1) forwards to {!Placer.place} as
    annealing multi-starts per placement attempt.  Up to 4 placement
    attempts run in seed order and stop at the first one the router
    completes; when none completes, the attempt with the fewest failed
    nets wins, ties to the earliest seed. *)

val procedural : ?style:int -> Mixsyn_circuit.Netlist.t -> report
(** [style] in 0..3 selects one of four fixed row recipes. *)

val items_of_netlist :
  Mixsyn_circuit.Netlist.t ->
  Placer.item array * Maze_router.net_spec list * Placer.symmetry
(** The shared preparation: stacks + fold variants + net specs + symmetry
    groups extracted from the schematic.  A matched device absorbed into a
    multi-device stack contributes its stack to the mirror constraints; a
    pair merged into one stack is matched by construction and dropped. *)

val tagged_geometry : report -> (string * Geom.rect) list
(** Every mask rectangle of the finished layout tagged with its owner — the
    generated cell's name, or ["net:<name>"] for routed wire — the form the
    DRC pass consumes.  Pin markers are not mask geometry and are
    excluded. *)
