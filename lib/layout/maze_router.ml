type net_class = Sensitive | Noisy | Neutral

let compatible a b =
  match (a, b) with
  | Sensitive, Noisy | Noisy, Sensitive -> false
  | (Sensitive | Noisy | Neutral), (Sensitive | Noisy | Neutral) -> true

type net_spec = {
  net : string;
  n_class : net_class;
  coupling_budget : float option;
}

type config = {
  rules : Rules.t;
  extra_margin : float;
  adjacency_penalty : float;
  via_cost : float;
}

let default_config =
  { rules = Rules.generic_07um;
    extra_margin = 6e-6;
    adjacency_penalty = 12.0;
    via_cost = 4.0 }

type wire = {
  w_net : string;
  rects : Geom.rect list;
  length : float;
  vias : int;
}

type result = {
  wires : wire list;
  failed : string list;
  total_length : float;
  total_vias : int;
  coupling : (string * string * float) list;
  symmetric_ok : int;
}

(* grid encoding *)
let free_cell = -1
let obstacle = -2

type grid = {
  nx : int;
  ny : int;
  pitch : float;
  ox : float;  (** world x of grid (0,_) *)
  oy : float;
  state : int array;  (** 2 layers: metal1 = layer 0, metal2 = layer 1 *)
  via_base : float;
}

let index g layer x y = (((layer * g.ny) + y) * g.nx) + x

let in_bounds g x y = x >= 0 && x < g.nx && y >= 0 && y < g.ny

let world_of g x y = (g.ox +. (float_of_int x *. g.pitch), g.oy +. (float_of_int y *. g.pitch))

let grid_of g wx wy =
  (int_of_float (Float.round ((wx -. g.ox) /. g.pitch)),
   int_of_float (Float.round ((wy -. g.oy) /. g.pitch)))

let blocks_metal1 (layer : Geom.layer) =
  match layer with
  | Geom.Ndiff | Geom.Pdiff | Geom.Poly | Geom.Metal1 | Geom.Contact -> true
  | Geom.Metal2 | Geom.Via12 | Geom.Nwell -> false

let build_grid config cells =
  let rules = config.rules in
  (* route on half the wiring pitch so closely spaced stack contacts land on
     distinct nodes; wires still reserve a full pitch through the spacing
     cost *)
  let pitch = rules.Rules.route_pitch /. 2.0 in
  let all_rects = List.concat_map (fun (c : Cell.t) -> c.Cell.rects) cells in
  let bb =
    match Geom.bbox all_rects with
    | Some bb -> bb
    | None -> Geom.rect Geom.Metal1 0.0 0.0 1e-5 1e-5
  in
  let m = config.extra_margin in
  let ox = bb.Geom.x0 -. m and oy = bb.Geom.y0 -. m in
  let nx = int_of_float (Float.ceil ((Geom.width bb +. (2.0 *. m)) /. pitch)) + 1 in
  let ny = int_of_float (Float.ceil ((Geom.height bb +. (2.0 *. m)) /. pitch)) + 1 in
  let g =
    { nx; ny; pitch; ox; oy; state = Array.make (2 * nx * ny) free_cell;
      via_base = config.via_cost }
  in
  (* block metal1 under cell geometry *)
  List.iter
    (fun r ->
      if blocks_metal1 r.Geom.layer then begin
        let x0, y0 = grid_of g r.Geom.x0 r.Geom.y0 in
        let x1, y1 = grid_of g r.Geom.x1 r.Geom.y1 in
        for x = max 0 x0 to min (nx - 1) x1 do
          for y = max 0 y0 to min (ny - 1) y1 do
            g.state.(index g 0 x y) <- obstacle
          done
        done
      end)
    all_rects;
  g

(* Binary min-heap of (cost, key) entries held as two parallel arrays, so a
   push or pop writes no boxed float and no tuple.  Sifting compares costs
   with strict [<] only: among equal costs the pop order is fixed by the
   push history alone. *)
module Heap = struct
  type t = {
    mutable cost : Float.Array.t;
    mutable key : int array;
    mutable size : int;
  }

  let create () = { cost = Float.Array.make 256 0.0; key = Array.make 256 0; size = 0 }

  let clear h = h.size <- 0

  let is_empty h = h.size = 0

  (* push key [k] at cost [costs.(k)]: the cost is read from a float
     array rather than passed, so the call boxes nothing *)
  let push h costs k =
    let c = Float.Array.get costs k in
    if h.size = Array.length h.key then begin
      let cost = Float.Array.make (2 * h.size) 0.0 and key = Array.make (2 * h.size) 0 in
      Float.Array.blit h.cost 0 cost 0 h.size;
      Array.blit h.key 0 key 0 h.size;
      h.cost <- cost;
      h.key <- key
    end;
    (* the hole rises while the new cost is strictly below its parent *)
    let i = ref h.size and rising = ref true in
    while !rising && !i > 0 do
      let parent = (!i - 1) / 2 in
      if c < Float.Array.unsafe_get h.cost parent then begin
        Float.Array.unsafe_set h.cost !i (Float.Array.unsafe_get h.cost parent);
        Array.unsafe_set h.key !i (Array.unsafe_get h.key parent);
        i := parent
      end
      else rising := false
    done;
    Float.Array.unsafe_set h.cost !i c;
    h.key.(!i) <- k;
    h.size <- h.size + 1

  (* cost of the entry {!pop} returns next; the heap must not be empty *)
  let min_cost h = Float.Array.unsafe_get h.cost 0

  (* remove the minimum entry and return its key; the heap must not be
     empty.  The last entry sinks from the root, trading places with the
     smaller child (the left one on ties) while that child is strictly
     cheaper. *)
  let pop h =
    let top = h.key.(0) in
    h.size <- h.size - 1;
    let n = h.size in
    if n > 0 then begin
      let c = Float.Array.unsafe_get h.cost n and k = h.key.(n) in
      let i = ref 0 and sinking = ref true in
      while !sinking do
        let left = (2 * !i) + 1 in
        let right = left + 1 in
        let best = ref !i and best_c = ref c in
        if left < n && Float.Array.unsafe_get h.cost left < !best_c then begin
          best := left;
          best_c := Float.Array.unsafe_get h.cost left
        end;
        if right < n && Float.Array.unsafe_get h.cost right < !best_c then best := right;
        if !best = !i then sinking := false
        else begin
          Float.Array.unsafe_set h.cost !i (Float.Array.unsafe_get h.cost !best);
          Array.unsafe_set h.key !i (Array.unsafe_get h.key !best);
          i := !best
        end
      done;
      Float.Array.unsafe_set h.cost !i c;
      h.key.(!i) <- k
    end;
    top
end

(* Search state, one per domain, grown to the largest grid seen and reused
   by every search on that domain.  A node's [dist]/[prev] are live only
   when [seen] holds the current generation (otherwise the node is
   unreached: infinite distance, no predecessor), and it is a target only
   when [target] does, so a new search starts by bumping [gen] instead of
   clearing full-grid arrays. *)
type workspace = {
  mutable dist : Float.Array.t;
  mutable prev : int array;
  mutable seen : int array;
  mutable target : int array;
  mutable gen : int;
  heap : Heap.t;
}

let workspace_key =
  Domain.DLS.new_key (fun () ->
      { dist = Float.Array.create 0; prev = [||]; seen = [||]; target = [||]; gen = 0;
        heap = Heap.create () })

(* the calling domain's workspace, ready for a fresh search over [n] nodes;
   held for one {!search} call only *)
let take_workspace n =
  let ws = Domain.DLS.get workspace_key in
  if Array.length ws.prev < n then begin
    ws.dist <- Float.Array.create n;
    ws.prev <- Array.make n (-1);
    ws.seen <- Array.make n 0;
    ws.target <- Array.make n 0
  end;
  ws.gen <- ws.gen + 1;
  Heap.clear ws.heap;
  ws

(* neighbour-class bits per node: some same-layer 4-neighbour is owned by a
   [Sensitive] net, resp. a [Noisy] one *)
let near_sensitive = 1
let near_noisy = 2

(* What a search for net [id] may enter and what entering costs: nodes that
   are obstacles or owned by another net are closed; any other node costs
   [penalty] when [near] carries [incompatible] (a neighbour owned by a net
   of the incompatible class), plus a small metal2 surcharge. *)
type costs = {
  id : int;
  near : Bytes.t;
  incompatible : int;  (** bit of [near] that draws the penalty; 0 = none *)
  penalty : float;
}

(* Relax the edge [node] -> [ni] of base cost [base]: [node] was just popped
   at its final distance. *)
let[@inline] relax g ws c node ni base =
  let s = g.state.(ni) in
  if s = free_cell || s = c.id then begin
    let pen =
      if Char.code (Bytes.get c.near ni) land c.incompatible <> 0 then c.penalty else 0.0
    in
    (* mild preference for metal1 *)
    let via_extra = if ni >= g.nx * g.ny then 0.05 else 0.0 in
    let sc = pen +. via_extra in
    if sc < infinity then begin
      let nd = Float.Array.get ws.dist node +. base +. sc in
      if nd < (if ws.seen.(ni) = ws.gen then Float.Array.get ws.dist ni else infinity) then begin
        ws.seen.(ni) <- ws.gen;
        Float.Array.set ws.dist ni nd;
        ws.prev.(ni) <- node;
        Heap.push ws.heap ws.dist ni
      end
    end
  end

(* Dijkstra from a set of sources to any target; returns the path as node
   indices, source first. *)
let search g c ~sources ~targets =
  let plane = g.nx * g.ny in
  let ws = take_workspace (Array.length g.state) in
  let gen = ws.gen in
  List.iter (fun t -> ws.target.(t) <- gen) targets;
  List.iter
    (fun s ->
      ws.seen.(s) <- gen;
      Float.Array.set ws.dist s 0.0;
      ws.prev.(s) <- -1;
      Heap.push ws.heap ws.dist s)
    sources;
  let found = ref (-1) and expansions = ref 0 and stale = ref 0 in
  while !found < 0 && not (Heap.is_empty ws.heap) do
    let d = Heap.min_cost ws.heap in
    let node = Heap.pop ws.heap in
    incr expansions;
    if d > Float.Array.get ws.dist node then incr stale
    else if ws.target.(node) = gen then found := node
    else begin
      let layer = node / plane in
      let rest = node - (layer * plane) in
      let y = rest / g.nx in
      let x = rest - (y * g.nx) in
      if x + 1 < g.nx then relax g ws c node (node + 1) 1.0;
      if x > 0 then relax g ws c node (node - 1) 1.0;
      if y + 1 < g.ny then relax g ws c node (node + g.nx) 1.0;
      if y > 0 then relax g ws c node (node - g.nx) 1.0;
      relax g ws c node (if layer = 0 then node + plane else node - plane) g.via_base
    end
  done;
  Mixsyn_util.Telemetry.count "router.searches";
  Mixsyn_util.Telemetry.add "router.grid_expansions" !expansions;
  Mixsyn_util.Telemetry.add "router.stale_pops" !stale;
  if !found < 0 then None
  else begin
    let rec trace node acc = if node = -1 then acc else trace ws.prev.(node) (node :: acc) in
    Some (trace !found [])
  end

(* layer changes between consecutive nodes of one search path *)
let vias_of g path =
  let plane = g.nx * g.ny in
  let rec go acc = function
    | a :: (b :: _ as rest) -> go (if a / plane <> b / plane then acc + 1 else acc) rest
    | [ _ ] | [] -> acc
  in
  go 0 path

let route_pass ?(config = default_config) ?(symmetric_pairs = []) ~priority ~salt ~cells ~nets () =
  let g = build_grid config cells in
  let nets = Array.of_list nets in
  let net_id = Hashtbl.create 16 in
  Array.iteri (fun i spec -> Hashtbl.replace net_id spec.net i) nets;
  let class_of = Array.map (fun spec -> spec.n_class) nets in
  (* Ownership is monotone within a pass (a node goes from free or obstacle
     to one net and stays there), so [near] only ever gains bits: every
     ownership write goes through [claim]. *)
  let near = Bytes.make (Array.length g.state) '\000' in
  let claim id node =
    g.state.(node) <- id;
    let bit =
      match class_of.(id) with
      | Sensitive -> near_sensitive
      | Noisy -> near_noisy
      | Neutral -> 0
    in
    if bit <> 0 then begin
      let plane = g.nx * g.ny in
      let rest = node mod plane in
      let y = rest / g.nx and x = rest mod g.nx in
      let mark n = Bytes.set near n (Char.chr (Char.code (Bytes.get near n) lor bit)) in
      if x + 1 < g.nx then mark (node + 1);
      if x > 0 then mark (node - 1);
      if y + 1 < g.ny then mark (node + g.nx);
      if y > 0 then mark (node - g.nx)
    end
  in
  (* pin nodes per net *)
  let pin_nodes = Array.make (Array.length nets) [] in
  (* snap each pin to the nearest metal1 node that is free or already owned
     by the same net (pins of distinct nets can sit closer than the pitch) *)
  let assign_pin id gx gy =
    let try_node x y =
      if in_bounds g x y then begin
        let node = index g 0 x y in
        let s = g.state.(node) in
        if s = free_cell || s = obstacle || s = id then begin
          claim id node;
          pin_nodes.(id) <- node :: pin_nodes.(id);
          true
        end
        else false
      end
      else false
    in
    let rec ring r =
      if r > 4 then ()
      else begin
        let hit = ref false in
        for dx = -r to r do
          for dy = -r to r do
            if (not !hit) && max (abs dx) (abs dy) = r then
              if try_node (gx + dx) (gy + dy) then hit := true
          done
        done;
        if not !hit then ring (r + 1)
      end
    in
    ring 0
  in
  List.iter
    (fun (c : Cell.t) ->
      List.iter
        (fun (p : Cell.pin) ->
          match Hashtbl.find_opt net_id p.Cell.pin_net with
          | None -> ()
          | Some id ->
            let x, y = Cell.pin_center p in
            let gx, gy = grid_of g x y in
            assign_pin id gx gy)
        c.Cell.pins)
    cells;
  let costs_of id =
    let budget_scale = match nets.(id).coupling_budget with Some _ -> 8.0 | None -> 1.0 in
    let clash cls bit = if compatible class_of.(id) cls then 0 else bit in
    { id;
      near;
      incompatible = clash Sensitive near_sensitive lor clash Noisy near_noisy;
      penalty = config.adjacency_penalty *. budget_scale }
  in
  let rects_of_path path =
    let half = 0.5 *. config.rules.Rules.min_width Geom.Metal1 in
    List.filter_map
      (fun node ->
        let layer_i = node / (g.nx * g.ny) in
        let rest = node mod (g.nx * g.ny) in
        let y = rest / g.nx and x = rest mod g.nx in
        let wx, wy = world_of g x y in
        let layer = if layer_i = 0 then Geom.Metal1 else Geom.Metal2 in
        Some (Geom.rect layer (wx -. half) (wy -. half) (wx +. half) (wy +. half)))
      path
  in
  (* net ordering: sensitive nets first (they get clean tracks), then by pin
     count *)
  let order =
    let ids = Array.to_list (Array.mapi (fun i _ -> i) nets) in
    let rank i =
      (* lower ranks route first: rip-up priority, then sensitivity, then
         pin count; the salt rotates ties so retry passes explore different
         orderings *)
      let prio = if List.mem nets.(i).net priority then 0 else 1 in
      let sens = if class_of.(i) = Sensitive then 0 else 1 in
      (prio, sens, (i + salt) mod max 1 (Array.length nets), -List.length pin_nodes.(i))
    in
    List.sort (fun a b -> compare (rank a) (rank b)) ids
  in
  let wires = ref [] and failed = ref [] in
  let symmetric_ok = ref 0 in
  (* a routed net's search paths, latest first *)
  let routed_paths : (string, int list list) Hashtbl.t = Hashtbl.create 4 in
  (* symmetry: if net is the second of a pair and its partner routed, try the
     mirror image about the partner's pin-centroid axis *)
  let partner_of net =
    List.fold_left
      (fun acc (a, b) -> if b = net then Some a else acc)
      None symmetric_pairs
  in
  let axis_x =
    (* the global mirror axis: centroid of all pins of paired nets *)
    let xs = ref [] in
    List.iter
      (fun (a, b) ->
        List.iter
          (fun name ->
            match Hashtbl.find_opt net_id name with
            | None -> ()
            | Some id ->
              List.iter
                (fun node ->
                  let rest = node mod (g.nx * g.ny) in
                  xs := float_of_int (rest mod g.nx) :: !xs)
                pin_nodes.(id))
          [ a; b ])
      symmetric_pairs;
    match !xs with
    | [] -> 0.0
    | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  let mirror_node node =
    let layer = node / (g.nx * g.ny) in
    let rest = node mod (g.nx * g.ny) in
    let y = rest / g.nx and x = rest mod g.nx in
    let mx = int_of_float (Float.round ((2.0 *. axis_x) -. float_of_int x)) in
    if in_bounds g mx y then Some (index g layer mx y) else None
  in
  (* a net's wire is its search paths laid end to end; a via is a layer
     change inside one path, never at the join of two (one path ends on a
     metal1 pin, the next may leave from a metal2 node of the tree) *)
  let lay id paths =
    let path = List.concat paths in
    List.iter (claim id) path;
    let vias = List.fold_left (fun acc p -> acc + vias_of g p) 0 paths in
    let length = float_of_int (List.length path) *. g.pitch in
    wires := { w_net = nets.(id).net; rects = rects_of_path path; length; vias } :: !wires
  in
  let route_net id =
    let spec = nets.(id) in
    match pin_nodes.(id) with
    | [] | [ _ ] -> () (* nothing to connect *)
    | first :: rest ->
      let try_mirror () =
        match partner_of spec.net with
        | None -> None
        | Some partner_name ->
          (match Hashtbl.find_opt routed_paths partner_name with
           | None -> None
           | Some partner_paths ->
             let mirrored = List.map (List.filter_map mirror_node) partner_paths in
             if List.exists2 (fun m p -> List.compare_lengths m p <> 0) mirrored partner_paths
             then None
             else if
               List.for_all
                 (List.for_all (fun node ->
                      let s = g.state.(node) in
                      s = free_cell || s = id))
                 mirrored
             then Some mirrored
             else None)
      in
      (match try_mirror () with
       | Some paths ->
         incr symmetric_ok;
         lay id paths
       | None ->
         let c = costs_of id in
         let tree = ref [ first ] in
         let paths = ref [] in
         let ok = ref true in
         List.iter
           (fun target ->
             if !ok then begin
               match search g c ~sources:!tree ~targets:[ target ] with
               | None -> ok := false
               | Some path ->
                 List.iter (claim id) path;
                 paths := path :: !paths;
                 tree := path @ !tree
             end)
           rest;
         if !ok then begin
           Hashtbl.replace routed_paths spec.net !paths;
           lay id !paths
         end
         else failed := spec.net :: !failed)
  in
  List.iter route_net order;
  (* coupling: adjacent same-layer cells of incompatible nets *)
  let coupling_tbl : (int * int, float) Hashtbl.t = Hashtbl.create 16 in
  for layer = 0 to 1 do
    for y = 0 to g.ny - 1 do
      for x = 0 to g.nx - 2 do
        let a = g.state.(index g layer x y) and b = g.state.(index g layer (x + 1) y) in
        if a >= 0 && b >= 0 && a <> b then begin
          let key = (min a b, max a b) in
          let prev = try Hashtbl.find coupling_tbl key with Not_found -> 0.0 in
          Hashtbl.replace coupling_tbl key
            (prev +. (Rules.cap_coupling_per_length *. g.pitch))
        end
      done
    done;
    for x = 0 to g.nx - 1 do
      for y = 0 to g.ny - 2 do
        let a = g.state.(index g layer x y) and b = g.state.(index g layer x (y + 1)) in
        if a >= 0 && b >= 0 && a <> b then begin
          let key = (min a b, max a b) in
          let prev = try Hashtbl.find coupling_tbl key with Not_found -> 0.0 in
          Hashtbl.replace coupling_tbl key
            (prev +. (Rules.cap_coupling_per_length *. g.pitch))
        end
      done
    done
  done;
  let coupling =
    Hashtbl.fold (fun (a, b) c acc -> (nets.(a).net, nets.(b).net, c) :: acc) coupling_tbl []
  in
  let wires = !wires in
  { wires;
    failed = !failed;
    total_length = List.fold_left (fun acc w -> acc +. w.length) 0.0 wires;
    total_vias = List.fold_left (fun acc w -> acc + w.vias) 0 wires;
    coupling;
    symmetric_ok = !symmetric_ok }

let coupling_on result net =
  List.fold_left
    (fun acc (a, b, c) -> if a = net || b = net then acc +. c else acc)
    0.0 result.coupling


let route ?config ?symmetric_pairs ~cells ~nets () =
  (* rip-up and re-route: nets that failed a pass go first in the next,
     and the tie-break ordering is rotated; keep the best pass seen *)
  let rec attempt k salt priority best =
    let result = route_pass ?config ?symmetric_pairs ~priority ~salt ~cells ~nets () in
    let best =
      match best with
      | Some b when List.length b.failed <= List.length result.failed -> Some b
      | Some _ | None -> Some result
    in
    if result.failed = [] || k = 0 then begin
      let final = Option.get best in
      Mixsyn_util.Telemetry.add "router.failed_nets" (List.length final.failed);
      final
    end
    else begin
      Mixsyn_util.Telemetry.count "router.ripup_passes";
      attempt (k - 1) (salt + 1) (result.failed @ priority) best
    end
  in
  Mixsyn_util.Telemetry.count "router.routes";
  attempt 6 0 [] None
