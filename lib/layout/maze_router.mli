(** ANAGRAM II-style analog area router ([35,36]), with the ANAGRAM III /
    ROAD parasitic-bounded cost extension ([39,40]).

    A two-metal-layer grid router over the placed cells:
    - Metal1 is blocked by cell geometry, Metal2 rides over the devices
      (over-the-device routing);
    - every net carries a {!net_class}; stepping adjacent to an
      incompatible net's wire costs extra (crosstalk avoidance), and
      sensitive nets can carry an explicit coupling budget that turns the
      soft cost into a near-hard constraint (parasitic bounds);
    - differential pairs are routed symmetrically: the partner net is laid
      as the mirror image when the mirrored cells are free.

    Multi-terminal nets are routed incrementally (each terminal connects to
    the net's existing tree) with Dijkstra search, not A*: no heuristic
    steers the search, so the routes depend only on the costs below and on
    the heap's fixed tie order.

    {b Cost model.}  The grid pitch is half the routing pitch.  Entering a
    node costs [1.0] for a same-layer step or [via_cost] for a layer
    change, plus a step surcharge [sc = pen +. via_extra], summed as
    [d +. base +. sc].  [pen] is [adjacency_penalty] (times 8 for a net
    with a coupling budget) when a same-layer 4-neighbour of the node is
    owned by a net of the incompatible class, else [0.0].  [via_extra] is
    [0.05] on metal2, a mild preference for metal1.  Obstacles and nodes
    owned by another net are closed.  A failed pass is retried up to six
    times with its failed nets first and the net order rotated; the pass
    with the fewest failed nets wins, ties to the earliest.

    {b Search state.}  Each domain keeps one search workspace (distances,
    predecessors, generation stamps and the heap), grown to the largest
    grid it has seen and taken by one search at a time, so a search
    allocates nothing per expansion and no full-grid array.  Routing on
    several domains at once is safe and gives the same routes as routing
    alone.

    Telemetry: [router.routes], [router.ripup_passes],
    [router.failed_nets], and per search [router.searches],
    [router.grid_expansions] (heap pops, stale ones included) and
    [router.stale_pops] (pops of a node already settled at a lower cost). *)

type net_class = Sensitive | Noisy | Neutral

val compatible : net_class -> net_class -> bool
(** Only [Sensitive]/[Noisy] adjacency is incompatible. *)

type net_spec = {
  net : string;
  n_class : net_class;
  coupling_budget : float option;
      (** max tolerated coupling capacitance, F (ROAD-style bound) *)
}

type config = {
  rules : Rules.t;
  extra_margin : float;   (** routing area margin around the placement, m *)
  adjacency_penalty : float;  (** cost per step adjacent to an incompatible wire *)
  via_cost : float;
}

val default_config : config

type wire = {
  w_net : string;
  rects : Geom.rect list;
  length : float;
  vias : int;
      (** layer changes inside each tree connection, summed; the join of
          one connection's end with the next one's start is not a via *)
}

type result = {
  wires : wire list;
  failed : string list;          (** nets that could not be completed *)
  total_length : float;
  total_vias : int;
  coupling : (string * string * float) list;
      (** per incompatible pair: estimated coupling capacitance, F *)
  symmetric_ok : int;            (** pairs successfully mirror-routed *)
}

val route :
  ?config:config ->
  ?symmetric_pairs:(string * string) list ->
  cells:Cell.t list ->
  nets:net_spec list ->
  unit ->
  result
(** Route every listed net over the placed [cells].  Nets not listed in
    [nets] but present on pins are ignored (power routing is the power-grid
    subsystem's job). *)

val coupling_on : result -> string -> float
(** Total coupling capacitance involving the given net. *)
