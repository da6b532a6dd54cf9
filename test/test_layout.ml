(* Backend tests: geometry, generators, stacking, placement, routing,
   channels, compaction, extraction, sensitivity. *)

module G = Mixsyn_layout.Geom
module Rules = Mixsyn_layout.Rules
module Cell = Mixsyn_layout.Cell
module Gen = Mixsyn_layout.Generator
module St = Mixsyn_layout.Stacker
module P = Mixsyn_layout.Placer
module MR = Mixsyn_layout.Maze_router
module CR = Mixsyn_layout.Channel_router
module Comp = Mixsyn_layout.Compactor
module Ex = Mixsyn_layout.Extract
module Sens = Mixsyn_layout.Sensitivity
module CF = Mixsyn_layout.Cell_flow
module N = Mixsyn_circuit.Netlist
module Tp = Mixsyn_circuit.Template

let tech = Mixsyn_circuit.Tech.generic_07um

let check_close ?(eps = 1e-6) msg expected actual =
  if Float.abs (expected -. actual) > eps *. Float.max 1e-30 (Float.abs expected) then
    Alcotest.failf "%s: expected %g, got %g" msg expected actual

let miller_netlist () =
  let x = [| 60e-6; 20e-6; 30e-6; 60e-6; 45e-6; 1e-6; 50e-6; 3e-12; 5e-12 |] in
  Mixsyn_circuit.Topology.miller_ota.Tp.build tech x

(* --- geometry ------------------------------------------------------------ *)

let test_rect_normalisation () =
  let r = G.rect G.Metal1 5.0 6.0 1.0 2.0 in
  check_close "x0" 1.0 r.G.x0;
  check_close "y1" 6.0 r.G.y1;
  check_close "area" 16.0 (G.area r)

let test_overlap () =
  let a = G.rect G.Metal1 0.0 0.0 2.0 2.0 in
  let b = G.rect G.Metal1 1.0 1.0 3.0 3.0 in
  let c = G.rect G.Metal1 2.0 0.0 4.0 2.0 in
  Alcotest.(check bool) "overlapping" true (G.overlaps a b);
  Alcotest.(check bool) "edge-sharing is not overlap" false (G.overlaps a c);
  check_close "intersection" 1.0 (G.intersection_area a b)

let test_bbox () =
  match G.bbox [ G.rect G.Metal1 0.0 0.0 1.0 1.0; G.rect G.Poly 3.0 (-1.0) 4.0 2.0 ] with
  | Some bb ->
    check_close "x0" 0.0 bb.G.x0;
    check_close "y0" (-1.0) bb.G.y0;
    check_close "x1" 4.0 bb.G.x1
  | None -> Alcotest.fail "bbox of non-empty list"

let prop_transform_preserves_area =
  QCheck.Test.make ~name:"orientation transforms preserve area" ~count:300
    QCheck.(pair (int_range 0 7) (quad (float_range 0. 10.) (float_range 0. 10.)
                                    (float_range 0.1 5.) (float_range 0.1 5.)))
    (fun (oi, (x, y, w, h)) ->
      let r = G.rect G.Metal1 x y (x +. w) (y +. h) in
      let orient = G.all_orientations.(oi) in
      let r' = G.transform orient ~w:20.0 ~h:20.0 r in
      Float.abs (G.area r -. G.area r') < 1e-9)

let test_transform_r90_swaps_dims () =
  let r = G.rect G.Metal1 0.0 0.0 4.0 1.0 in
  let r' = G.transform G.R90 ~w:4.0 ~h:1.0 r in
  check_close "width" 1.0 (G.width r');
  check_close "height" 4.0 (G.height r')

(* --- cells / generators ---------------------------------------------------- *)

let test_cell_normalised_to_origin () =
  let rects = [ G.rect G.Metal1 5.0 5.0 7.0 8.0 ] in
  let c = Cell.make "c" rects [] in
  check_close "width" 2.0 c.Cell.cw;
  check_close "height" 3.0 c.Cell.ch;
  match c.Cell.rects with
  | [ r ] -> check_close "anchored" 0.0 r.G.x0
  | _ -> Alcotest.fail "rect lost"

let test_mos_cell_pins () =
  let c =
    Gen.mos ~name:"m1" ~polarity:N.Nmos ~w:20e-6 ~l:1e-6 ~folds:2 ~drain_net:"d"
      ~gate_net:"g" ~source_net:"s" ()
  in
  let nets = List.sort_uniq compare (List.map (fun p -> p.Cell.pin_net) c.Cell.pins) in
  Alcotest.(check (list string)) "terminal nets" [ "d"; "g"; "s" ] nets;
  if Cell.area c <= 0.0 then Alcotest.fail "degenerate cell"

let test_mos_folding_shrinks_height () =
  let tall =
    Gen.mos ~name:"m" ~polarity:N.Nmos ~w:40e-6 ~l:1e-6 ~folds:1 ~drain_net:"d"
      ~gate_net:"g" ~source_net:"s" ()
  in
  let folded =
    Gen.mos ~name:"m" ~polarity:N.Nmos ~w:40e-6 ~l:1e-6 ~folds:4 ~drain_net:"d"
      ~gate_net:"g" ~source_net:"s" ()
  in
  if folded.Cell.ch >= tall.Cell.ch then Alcotest.fail "folding should reduce height"

let test_pmos_cell_has_well () =
  let c =
    Gen.mos ~name:"m" ~polarity:N.Pmos ~w:10e-6 ~l:1e-6 ~folds:1 ~drain_net:"d"
      ~gate_net:"g" ~source_net:"s" ()
  in
  Alcotest.(check bool) "nwell present" true
    (List.exists (fun r -> r.G.layer = G.Nwell) c.Cell.rects)

let test_stack_cell_nodes () =
  let c =
    Gen.stack ~name:"st" ~polarity:N.Nmos ~w:10e-6 ~l:1e-6
      ~gates:[ ("m1", "g1"); ("m2", "g2") ] ~nodes:[ "a"; "b"; "c" ] ()
  in
  let nets = List.sort_uniq compare (List.map (fun p -> p.Cell.pin_net) c.Cell.pins) in
  Alcotest.(check (list string)) "all nets pinned" [ "a"; "b"; "c"; "g1"; "g2" ] nets

let test_capacitor_area_scales () =
  let small = Gen.capacitor ~name:"c1" ~farads:1e-12 ~net_a:"a" ~net_b:"b" () in
  let big = Gen.capacitor ~name:"c2" ~farads:4e-12 ~net_a:"a" ~net_b:"b" () in
  check_close ~eps:0.05 "4x capacitance = 4x area" 4.0 (Cell.area big /. Cell.area small)

let test_resistor_squares () =
  let r = Gen.resistor ~name:"r1" ~ohms:10e3 ~net_a:"a" ~net_b:"b" () in
  if Cell.area r <= 0.0 then Alcotest.fail "degenerate resistor";
  Alcotest.(check int) "two pins" 2 (List.length r.Cell.pins)

(* --- stacking ----------------------------------------------------------------- *)

let test_stacker_covers_all_devices () =
  let nl = miller_netlist () in
  let devices = N.mos_list nl in
  let s = St.linear devices in
  let stacked = List.concat_map (fun st -> st.St.devices) s.St.stacks in
  Alcotest.(check int) "every device stacked once" (List.length devices)
    (List.length stacked);
  Alcotest.(check int) "no duplicates" (List.length stacked)
    (List.length (List.sort_uniq compare stacked))

let test_stacker_merges_diff_pair () =
  (* the miller input pair shares its source: must merge *)
  let nl = miller_netlist () in
  let s = St.linear (N.mos_list nl) in
  if s.St.merged_junctions < 2 then
    Alcotest.failf "expected >= 2 merges, got %d" s.St.merged_junctions

let test_exact_matches_linear_optimum () =
  let nl = miller_netlist () in
  let devices = N.mos_list nl in
  let lin = St.linear devices in
  let ex = St.exact devices in
  Alcotest.(check int) "same merge count" lin.St.merged_junctions
    ex.St.best.St.merged_junctions;
  if ex.St.optimal_count < 1 then Alcotest.fail "no optimal stacking counted"

let test_junction_capacitance_improves () =
  let nl = miller_netlist () in
  let devices = N.mos_list nl in
  let merged = St.linear devices in
  let unstacked = { St.stacks = []; merged_junctions = 0 } in
  let c_merged = St.junction_capacitance tech devices merged in
  let c_flat = St.junction_capacitance tech devices unstacked in
  if c_merged >= c_flat then Alcotest.fail "stacking should reduce junction capacitance"

let test_stacker_respects_polarity () =
  let nl = miller_netlist () in
  let s = St.linear (N.mos_list nl) in
  List.iter
    (fun st ->
      List.iter
        (fun d ->
          let m = N.find_mos nl d in
          if m.N.polarity <> st.St.polarity then Alcotest.fail "mixed-polarity stack")
        st.St.devices)
    s.St.stacks

(* --- placement ------------------------------------------------------------------ *)

let items () =
  let nl = miller_netlist () in
  CF.items_of_netlist nl

let test_placer_overlap_free () =
  let its, _, sym = items () in
  let placement = P.place ~seed:23 its sym in
  Alcotest.(check bool) "no overlaps" true (P.overlap_free its placement)

let test_placer_beats_initial_wirelength () =
  let its, _, sym = items () in
  let placement = P.place ~seed:23 its sym in
  (* a naive far-apart lineup for comparison *)
  let spread =
    Array.mapi
      (fun i _ ->
        { P.variant = 0; orient = G.R0; x = float_of_int i *. 150e-6; y = 0.0 })
      its
  in
  if P.wirelength its placement >= P.wirelength its spread then
    Alcotest.fail "annealing did not improve on the spread lineup"

let test_placer_cost_parts_nonnegative () =
  let its, _, sym = items () in
  let placement = P.place ~seed:23 its sym in
  let overlap, area, wl, symv = P.cost_parts its sym placement in
  if overlap < 0.0 || area <= 0.0 || wl < 0.0 || symv < 0.0 then
    Alcotest.fail "nonsensical cost parts"

(* --- incremental evaluator ------------------------------------------------ *)

let lineup its =
  Array.mapi
    (fun i _ -> { P.variant = 0; orient = G.R0; x = float_of_int i *. 40e-6; y = 0.0 })
    its

(* drive [ev] through one random tentative move, returning after the
   delta; the caller decides commit/revert *)
let random_move rng its ev =
  let n = Array.length its in
  let i = Mixsyn_util.Rng.int rng n in
  if n > 1 && Mixsyn_util.Rng.int rng 10 >= 7 then
    let j = (i + 1 + Mixsyn_util.Rng.int rng (n - 1)) mod n in
    P.Eval.swap_positions ev i j
  else
    P.Eval.set_site ev i
      { P.variant = Mixsyn_util.Rng.int rng (Array.length its.(i).P.variants);
        orient = Mixsyn_util.Rng.choice rng G.all_orientations;
        x = Mixsyn_util.Rng.uniform rng (-200e-6) 200e-6;
        y = Mixsyn_util.Rng.uniform rng (-200e-6) 200e-6 }

(* the evaluator's contract: after ANY sequence of moves, commits, and
   reverts, its state is bit-equal to a fresh build of the same placement —
   exact float equality, no epsilon *)
let prop_eval_matches_full_recompute =
  QCheck.Test.make ~name:"incremental eval == full recompute, bit-exact" ~count:25
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let its, _, sym = items () in
      let rng = Mixsyn_util.Rng.create seed in
      let ev = P.Eval.create its sym (lineup its) in
      for _ = 1 to 120 do
        let (_ : float) = random_move rng its ev in
        if Mixsyn_util.Rng.bool rng then P.Eval.commit ev else P.Eval.revert ev
      done;
      let o1, a1, w1, s1 = P.Eval.cost_parts ev in
      let o2, a2, w2, s2 = P.cost_parts its sym (P.Eval.placement ev) in
      o1 = o2 && a1 = a2 && w1 = w2 && s1 = s2)

let prop_eval_revert_exact =
  QCheck.Test.make ~name:"revert restores cost_parts bit-exactly" ~count:25
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let its, _, sym = items () in
      let rng = Mixsyn_util.Rng.create seed in
      let ev = P.Eval.create its sym (lineup its) in
      (* wander to an arbitrary committed state first *)
      for _ = 1 to 40 do
        let (_ : float) = random_move rng its ev in
        P.Eval.commit ev
      done;
      let ok = ref true in
      for _ = 1 to 60 do
        let before = P.Eval.cost_parts ev in
        let (_ : float) = random_move rng its ev in
        P.Eval.revert ev;
        if P.Eval.cost_parts ev <> before then ok := false
      done;
      !ok)

let test_place_jobs_invariant () =
  let its, _, sym = items () in
  (* a short schedule: invariance does not depend on schedule length *)
  let schedule =
    { Mixsyn_opt.Anneal.t_start = 1e12; t_end = 1e6; cooling = 0.6; moves_per_stage = 40 }
  in
  let run jobs = P.place ~schedule ~seed:23 ~restarts:4 ~jobs its sym in
  let p1 = run 1 in
  Alcotest.(check bool) "jobs 1 = jobs 2" true (p1 = run 2);
  Alcotest.(check bool) "jobs 1 = jobs 4" true (p1 = run 4)

(* the incremental placement evaluator's allocation contract: a full
   4-restart placement of the Miller OTA at jobs 1 (every chain on this
   domain) stays under 8.9e6 minor words per restart (~8.9e8 before the
   evaluator was incremental) *)
let test_place_allocation () =
  let its, _, sym = items () in
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (P.place ~seed:23 ~restarts:4 ~jobs:1 its sym));
  let words = (Gc.minor_words () -. w0) /. 4.0 in
  Printf.printf "placement: %.3g minor words/restart\n" words;
  if words > 8.9e6 then Alcotest.failf "%.3g minor words/restart, cap 8.9e6" words

(* --- maze routing ------------------------------------------------------------------ *)

let test_route_miller_complete () =
  let nl = miller_netlist () in
  let r = CF.koan ~seed:23 nl in
  Alcotest.(check (list string)) "no failures" [] r.CF.route.MR.failed;
  if r.CF.wirelength_m <= 0.0 then Alcotest.fail "no wire laid"

let test_route_coupling_reported () =
  let nl = miller_netlist () in
  let r = CF.koan ~seed:23 nl in
  (* coupling entries must be symmetric-free and positive *)
  List.iter
    (fun (a, b, c) ->
      if a = b then Alcotest.fail "self coupling";
      if c <= 0.0 then Alcotest.fail "non-positive coupling")
    r.CF.route.MR.coupling

let test_net_class_compatibility () =
  Alcotest.(check bool) "sensitive vs noisy" false (MR.compatible MR.Sensitive MR.Noisy);
  Alcotest.(check bool) "sensitive vs sensitive" true (MR.compatible MR.Sensitive MR.Sensitive);
  Alcotest.(check bool) "neutral vs noisy" true (MR.compatible MR.Neutral MR.Noisy)

let test_parasitic_bound_reduces_coupling () =
  (* ROAD-style: a tight coupling budget on o1 must not increase its
     coupling exposure *)
  let nl = miller_netlist () in
  let plain = CF.koan ~seed:23 nl in
  let bounded = CF.koan ~seed:23 ~coupling_budgets:[ ("o1", 1e-18) ] nl in
  let c_plain = MR.coupling_on plain.CF.route "o1" in
  let c_bounded = MR.coupling_on bounded.CF.route "o1" in
  if c_bounded > c_plain +. 1e-18 then
    Alcotest.failf "budgeted routing coupled more: %g > %g" c_bounded c_plain

(* --- maze router against the reference search ------------------------------------- *)

(* Reference router: the straightforward search the flat one must match, a
   binary heap of boxed (cost, key) tuples and fresh full-grid arrays on
   every search, with the crosstalk test reading the four neighbours of each
   relaxed node.  Vias are layer changes inside each search path.  The
   tests below hold [MR.route] to it bit for bit. *)
module Oracle = struct
  let free_cell = -1
  let obstacle = -2

  type grid = {
    nx : int;
    ny : int;
    pitch : float;
    ox : float;
    oy : float;
    state : int array;
    via_base : float;
  }

  let index g layer x y = (((layer * g.ny) + y) * g.nx) + x
  let in_bounds g x y = x >= 0 && x < g.nx && y >= 0 && y < g.ny
  let world_of g x y = (g.ox +. (float_of_int x *. g.pitch), g.oy +. (float_of_int y *. g.pitch))

  let grid_of g wx wy =
    (int_of_float (Float.round ((wx -. g.ox) /. g.pitch)),
     int_of_float (Float.round ((wy -. g.oy) /. g.pitch)))

  let blocks_metal1 (layer : G.layer) =
    match layer with
    | G.Ndiff | G.Pdiff | G.Poly | G.Metal1 | G.Contact -> true
    | G.Metal2 | G.Via12 | G.Nwell -> false

  let build_grid (config : MR.config) cells =
    let rules = config.MR.rules in
    let pitch = rules.Rules.route_pitch /. 2.0 in
    let all_rects = List.concat_map (fun (c : Cell.t) -> c.Cell.rects) cells in
    let bb =
      match G.bbox all_rects with Some bb -> bb | None -> G.rect G.Metal1 0.0 0.0 1e-5 1e-5
    in
    let m = config.MR.extra_margin in
    let ox = bb.G.x0 -. m and oy = bb.G.y0 -. m in
    let nx = int_of_float (Float.ceil ((G.width bb +. (2.0 *. m)) /. pitch)) + 1 in
    let ny = int_of_float (Float.ceil ((G.height bb +. (2.0 *. m)) /. pitch)) + 1 in
    let g =
      { nx; ny; pitch; ox; oy; state = Array.make (2 * nx * ny) free_cell;
        via_base = config.MR.via_cost }
    in
    List.iter
      (fun r ->
        if blocks_metal1 r.G.layer then begin
          let x0, y0 = grid_of g r.G.x0 r.G.y0 in
          let x1, y1 = grid_of g r.G.x1 r.G.y1 in
          for x = max 0 x0 to min (nx - 1) x1 do
            for y = max 0 y0 to min (ny - 1) y1 do
              g.state.(index g 0 x y) <- obstacle
            done
          done
        end)
      all_rects;
    g

  module Heap = struct
    type t = { mutable data : (float * int) array; mutable size : int }

    let create () = { data = Array.make 256 (0.0, 0); size = 0 }

    let push h item =
      if h.size = Array.length h.data then begin
        let bigger = Array.make (2 * h.size) (0.0, 0) in
        Array.blit h.data 0 bigger 0 h.size;
        h.data <- bigger
      end;
      h.data.(h.size) <- item;
      let rec up i =
        if i > 0 then begin
          let parent = (i - 1) / 2 in
          if fst h.data.(i) < fst h.data.(parent) then begin
            let tmp = h.data.(i) in
            h.data.(i) <- h.data.(parent);
            h.data.(parent) <- tmp;
            up parent
          end
        end
      in
      up h.size;
      h.size <- h.size + 1

    let pop h =
      if h.size = 0 then None
      else begin
        let top = h.data.(0) in
        h.size <- h.size - 1;
        h.data.(0) <- h.data.(h.size);
        let rec down i =
          let left = (2 * i) + 1 and right = (2 * i) + 2 in
          let smallest = ref i in
          if left < h.size && fst h.data.(left) < fst h.data.(!smallest) then smallest := left;
          if right < h.size && fst h.data.(right) < fst h.data.(!smallest) then smallest := right;
          if !smallest <> i then begin
            let tmp = h.data.(i) in
            h.data.(i) <- h.data.(!smallest);
            h.data.(!smallest) <- tmp;
            down !smallest
          end
        in
        down 0;
        Some top
      end
  end

  (* pops over every search since the last reset, stale ones included *)
  let expansions = ref 0

  let search g ~sources ~targets ~step_cost =
    let n = Array.length g.state in
    let dist = Array.make n infinity in
    let prev = Array.make n (-1) in
    let heap = Heap.create () in
    let target_set = Array.make n false in
    List.iter (fun t -> target_set.(t) <- true) targets;
    List.iter
      (fun s ->
        dist.(s) <- 0.0;
        Heap.push heap (0.0, s))
      sources;
    let rec run () =
      match Heap.pop heap with
      | None -> None
      | Some (d, node) ->
        incr expansions;
        if d > dist.(node) then run ()
        else if target_set.(node) then Some node
        else begin
          let layer = node / (g.nx * g.ny) in
          let rest = node mod (g.nx * g.ny) in
          let y = rest / g.nx and x = rest mod g.nx in
          let try_neighbor nlayer nx_ ny_ base =
            if in_bounds g nx_ ny_ then begin
              let ni = index g nlayer nx_ ny_ in
              let sc = step_cost ni in
              if sc < infinity then begin
                let nd = d +. base +. sc in
                if nd < dist.(ni) then begin
                  dist.(ni) <- nd;
                  prev.(ni) <- node;
                  Heap.push heap (nd, ni)
                end
              end
            end
          in
          try_neighbor layer (x + 1) y 1.0;
          try_neighbor layer (x - 1) y 1.0;
          try_neighbor layer x (y + 1) 1.0;
          try_neighbor layer x (y - 1) 1.0;
          try_neighbor (1 - layer) x y g.via_base;
          run ()
        end
    in
    match run () with
    | None -> None
    | Some t ->
      let rec trace node acc = if node = -1 then acc else trace prev.(node) (node :: acc) in
      Some (trace t [])

  let vias_of g path =
    let rec go acc = function
      | a :: (b :: _ as rest) ->
        go (if a / (g.nx * g.ny) <> b / (g.nx * g.ny) then acc + 1 else acc) rest
      | [ _ ] | [] -> acc
    in
    go 0 path

  let route_pass ~config ~symmetric_pairs ~priority ~salt ~cells ~(nets : MR.net_spec list) =
    let g = build_grid config cells in
    let nets = Array.of_list nets in
    let net_id = Hashtbl.create 16 in
    Array.iteri (fun i spec -> Hashtbl.replace net_id spec.MR.net i) nets;
    let class_of = Array.map (fun spec -> spec.MR.n_class) nets in
    let pin_nodes = Array.make (Array.length nets) [] in
    let assign_pin id gx gy =
      let try_node x y =
        if in_bounds g x y then begin
          let node = index g 0 x y in
          let s = g.state.(node) in
          if s = free_cell || s = obstacle || s = id then begin
            g.state.(node) <- id;
            pin_nodes.(id) <- node :: pin_nodes.(id);
            true
          end
          else false
        end
        else false
      in
      let rec ring r =
        if r <= 4 then begin
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
    let incompatible_neighbor id node =
      let layer = node / (g.nx * g.ny) in
      let rest = node mod (g.nx * g.ny) in
      let y = rest / g.nx and x = rest mod g.nx in
      let bad = ref false in
      let look nx_ ny_ =
        if in_bounds g nx_ ny_ then begin
          let s = g.state.(index g layer nx_ ny_) in
          if s >= 0 && s <> id && not (MR.compatible class_of.(s) class_of.(id)) then bad := true
        end
      in
      look (x + 1) y;
      look (x - 1) y;
      look x (y + 1);
      look x (y - 1);
      !bad
    in
    let step_cost id node =
      let s = g.state.(node) in
      if s = obstacle then infinity
      else if s >= 0 && s <> id then infinity
      else begin
        let budget_scale =
          match nets.(id).MR.coupling_budget with Some _ -> 8.0 | None -> 1.0
        in
        let layer = node / (g.nx * g.ny) in
        let via_extra = if layer = 1 then 0.05 else 0.0 in
        (if incompatible_neighbor id node then config.MR.adjacency_penalty *. budget_scale
         else 0.0)
        +. via_extra
      end
    in
    let occupy id path = List.iter (fun node -> g.state.(node) <- id) path in
    let rects_of_path path =
      let half = 0.5 *. config.MR.rules.Rules.min_width G.Metal1 in
      List.map
        (fun node ->
          let layer_i = node / (g.nx * g.ny) in
          let rest = node mod (g.nx * g.ny) in
          let y = rest / g.nx and x = rest mod g.nx in
          let wx, wy = world_of g x y in
          let layer = if layer_i = 0 then G.Metal1 else G.Metal2 in
          G.rect layer (wx -. half) (wy -. half) (wx +. half) (wy +. half))
        path
    in
    let order =
      let ids = List.init (Array.length nets) Fun.id in
      let rank i =
        let prio = if List.mem nets.(i).MR.net priority then 0 else 1 in
        let sens = if class_of.(i) = MR.Sensitive then 0 else 1 in
        (prio, sens, (i + salt) mod max 1 (Array.length nets), -List.length pin_nodes.(i))
      in
      List.sort (fun a b -> compare (rank a) (rank b)) ids
    in
    let wires = ref [] and failed = ref [] in
    let symmetric_ok = ref 0 in
    let mirrored_paths : (string, int list list) Hashtbl.t = Hashtbl.create 4 in
    let partner_of net =
      List.fold_left (fun acc (a, b) -> if b = net then Some a else acc) None symmetric_pairs
    in
    let axis_x =
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
    let route_net id =
      let spec = nets.(id) in
      match pin_nodes.(id) with
      | [] | [ _ ] -> ()
      | first :: rest ->
        let try_mirror () =
          match partner_of spec.MR.net with
          | None -> None
          | Some partner_name ->
            (match Hashtbl.find_opt mirrored_paths partner_name with
             | None -> None
             | Some partner_paths ->
               let mirrored = List.map (List.filter_map mirror_node) partner_paths in
               if List.length (List.concat mirrored) <> List.length (List.concat partner_paths)
               then None
               else if
                 List.for_all
                   (fun node ->
                     let s = g.state.(node) in
                     s = free_cell || s = id)
                   (List.concat mirrored)
               then Some mirrored
               else None)
        in
        let vias paths = List.fold_left (fun acc p -> acc + vias_of g p) 0 paths in
        (match try_mirror () with
         | Some paths ->
           incr symmetric_ok;
           let path = List.concat paths in
           occupy id path;
           let length = float_of_int (List.length path) *. g.pitch in
           wires :=
             { MR.w_net = spec.MR.net; rects = rects_of_path path; length; vias = vias paths }
             :: !wires
         | None ->
           let tree = ref [ first ] in
           let all_path = ref [] and paths = ref [] in
           let ok = ref true in
           List.iter
             (fun target ->
               if !ok then begin
                 match search g ~sources:!tree ~targets:[ target ] ~step_cost:(step_cost id) with
                 | None -> ok := false
                 | Some path ->
                   occupy id path;
                   all_path := path @ !all_path;
                   paths := path :: !paths;
                   tree := path @ !tree
               end)
             rest;
           if !ok then begin
             let path = !all_path in
             Hashtbl.replace mirrored_paths spec.MR.net !paths;
             let length = float_of_int (List.length path) *. g.pitch in
             wires :=
               { MR.w_net = spec.MR.net; rects = rects_of_path path; length;
                 vias = vias !paths }
               :: !wires
           end
           else failed := spec.MR.net :: !failed)
    in
    List.iter route_net order;
    let coupling_tbl : (int * int, float) Hashtbl.t = Hashtbl.create 16 in
    let couple a b =
      if a >= 0 && b >= 0 && a <> b then begin
        let key = (min a b, max a b) in
        let prev = try Hashtbl.find coupling_tbl key with Not_found -> 0.0 in
        Hashtbl.replace coupling_tbl key (prev +. (Rules.cap_coupling_per_length *. g.pitch))
      end
    in
    for layer = 0 to 1 do
      for y = 0 to g.ny - 1 do
        for x = 0 to g.nx - 2 do
          couple g.state.(index g layer x y) g.state.(index g layer (x + 1) y)
        done
      done;
      for x = 0 to g.nx - 1 do
        for y = 0 to g.ny - 2 do
          couple g.state.(index g layer x y) g.state.(index g layer x (y + 1))
        done
      done
    done;
    let coupling =
      Hashtbl.fold (fun (a, b) c acc -> (nets.(a).MR.net, nets.(b).MR.net, c) :: acc) coupling_tbl []
    in
    let wires = !wires in
    { MR.wires;
      failed = !failed;
      total_length = List.fold_left (fun acc w -> acc +. w.MR.length) 0.0 wires;
      total_vias = List.fold_left (fun acc w -> acc + w.MR.vias) 0 wires;
      coupling;
      symmetric_ok = !symmetric_ok }

  let route ?(config = MR.default_config) ?(symmetric_pairs = []) ~cells ~nets () =
    let rec attempt k salt priority best =
      let result = route_pass ~config ~symmetric_pairs ~priority ~salt ~cells ~nets in
      let best =
        match best with
        | Some b when List.length b.MR.failed <= List.length result.MR.failed -> Some b
        | Some _ | None -> Some result
      in
      if result.MR.failed = [] || k = 0 then Option.get best
      else attempt (k - 1) (salt + 1) (result.MR.failed @ priority) best
    in
    attempt 6 0 [] None
end

(* every field of a route result, floats as their bit patterns *)
let route_fingerprint (r : MR.result) =
  let bits = Int64.bits_of_float in
  let rect (q : G.rect) = (G.layer_name q.G.layer, bits q.G.x0, bits q.G.y0, bits q.G.x1, bits q.G.y1) in
  ( List.map
      (fun (w : MR.wire) -> (w.MR.w_net, List.map rect w.MR.rects, bits w.MR.length, w.MR.vias))
      r.MR.wires,
    r.MR.failed,
    bits r.MR.total_length,
    r.MR.total_vias,
    List.map (fun (a, b, c) -> (a, b, bits c)) r.MR.coupling,
    r.MR.symmetric_ok )

(* a routing case: a seeded sizing of one topology, a short seeded anneal
   of its items, optionally coupling budgets on some nets and the
   differential inputs as a symmetric pair *)
let routing_case ~topology ~seed ~budgets ~symmetric =
  let rng = Mixsyn_util.Rng.create seed in
  let nl = topology.Tp.build tech (Tp.random_point topology rng) in
  let its, nets, sym = CF.items_of_netlist nl in
  let schedule =
    { Mixsyn_opt.Anneal.t_start = 1e12; t_end = 1e6; cooling = 0.6; moves_per_stage = 40 }
  in
  let cells = P.realized its (P.place ~schedule ~seed its sym) in
  let nets =
    if budgets then
      List.map
        (fun (spec : MR.net_spec) ->
          if Mixsyn_util.Rng.bool rng then { spec with MR.coupling_budget = Some 1e-18 } else spec)
        nets
    else nets
  in
  let names = List.map (fun (s : MR.net_spec) -> s.MR.net) nets in
  let symmetric_pairs =
    if symmetric && List.mem "inp" names && List.mem "inn" names then [ ("inp", "inn") ] else []
  in
  (cells, nets, symmetric_pairs)

(* route one case with both routers: fingerprints and expansion counts *)
let route_both (cells, nets, symmetric_pairs) =
  let before = Mixsyn_util.Telemetry.counter "router.grid_expansions" in
  let got = MR.route ~symmetric_pairs ~cells ~nets () in
  let expansions = Mixsyn_util.Telemetry.counter "router.grid_expansions" - before in
  Oracle.expansions := 0;
  let want = Oracle.route ~symmetric_pairs ~cells ~nets () in
  ((route_fingerprint got, expansions), (route_fingerprint want, !Oracle.expansions))

let prop_router_matches_oracle =
  QCheck.Test.make ~name:"router == reference search, bit-exact" ~count:16
    QCheck.(quad (int_range 0 3) (int_range 0 1_000_000) bool bool)
    (fun (t, seed, budgets, symmetric) ->
      let topology = List.nth Mixsyn_circuit.Topology.all t in
      let got, want = route_both (routing_case ~topology ~seed ~budgets ~symmetric) in
      got = want)

(* a synthetic routing case drawn from [seed]: Sensitive nets with pins
   mirrored about a vertical axis (so mirror routing can succeed), Noisy and
   Neutral nets, and bare metal1 blockages *)
let synthetic_case ~seed ~budgets ~symmetric =
  let rng = Mixsyn_util.Rng.create seed in
  let pick lo hi = lo +. (float_of_int (Mixsyn_util.Rng.int rng 1000) *. (hi -. lo) /. 1000.0) in
  let pin_cell net x y =
    let r = G.rect G.Metal1 0.0 0.0 0.8e-6 0.8e-6 in
    Cell.translate x y
      (Cell.make ("pin-" ^ net) [ { r with G.layer = G.Nwell } ]
         [ { Cell.pin_name = "t"; pin_net = net; pin_rect = r } ])
  in
  let spec net n_class =
    let coupling_budget = if budgets && Mixsyn_util.Rng.bool rng then Some 1e-18 else None in
    { MR.net; n_class; coupling_budget }
  in
  let n_pins () = 2 + Mixsyn_util.Rng.int rng 2 in
  let pairs = List.init (1 + Mixsyn_util.Rng.int rng 2) (fun k -> (Printf.sprintf "sp%d" k, Printf.sprintf "sn%d" k)) in
  let mirrored =
    List.concat_map
      (fun (p, n) ->
        List.concat
          (List.init (n_pins ()) (fun _ ->
               let x = pick 2e-6 45e-6 and y = pick 0.0 40e-6 in
               [ pin_cell p x y; pin_cell n (100e-6 -. x -. 0.8e-6) y ])))
      pairs
  in
  let others =
    List.init 3 (fun k ->
        let net, cls =
          match k with
          | 0 -> ("loud", MR.Noisy)
          | 1 -> ("quiet", MR.Sensitive)
          | _ -> ("plain", MR.Neutral)
        in
        (spec net cls, List.init (n_pins ()) (fun _ -> pin_cell net (pick 0.0 100e-6) (pick 0.0 40e-6))))
  in
  let blockages =
    List.init (2 + Mixsyn_util.Rng.int rng 5) (fun k ->
        let x = pick 0.0 95e-6 and y = pick 0.0 35e-6 in
        Cell.translate x y
          (Cell.make (Printf.sprintf "block%d" k)
             [ G.rect G.Metal1 0.0 0.0 (pick 1e-6 12e-6) (pick 1e-6 12e-6) ] []))
  in
  let nets =
    List.concat_map (fun (p, n) -> [ spec p MR.Sensitive; spec n MR.Sensitive ]) pairs
    @ List.map fst others
  in
  ( blockages @ mirrored @ List.concat_map snd others,
    nets,
    if symmetric then pairs else [] )

let prop_router_matches_oracle_synthetic =
  QCheck.Test.make ~name:"router == reference search on mirrored pins, bit-exact" ~count:60
    QCheck.(triple (int_range 0 1_000_000) bool bool)
    (fun (seed, budgets, symmetric) ->
      let got, want = route_both (synthetic_case ~seed ~budgets ~symmetric) in
      got = want)

(* Net "a" has four pins on one grid row: the first pin sits inside a metal1
   wall and the second right of it, so the first connection climbs to metal2
   over the wall and comes down (2 vias); the connection to the pin left of
   the wall leaves from the metal2 node above the walled pin (1 via); the
   last pin hangs off the second on metal1 (0 vias).  The wire is the three
   paths end to end, and the join of the last path's metal1 end with the
   middle path's metal2 start is not a via: 3 in all, not 4.  Net "b" is
   the mirror image and is laid as the mirror of "a", with the same count. *)
let test_router_vias_per_connection () =
  let pitch = Rules.generic_07um.Rules.route_pitch /. 2.0 in
  (* world coordinate of grid line [k]: the frame below puts the grid
     origin at -extra_margin *)
  let at k = (float_of_int k *. pitch) -. MR.default_config.MR.extra_margin in
  let row = 20 in
  let pin net i =
    let r = G.rect G.Metal1 (at i -. 0.4e-6) (at row -. 0.4e-6) (at i +. 0.4e-6) (at row +. 0.4e-6) in
    Cell.translate r.G.x0 r.G.y0
      (Cell.make ("pin-" ^ net) [ { r with G.layer = G.Nwell } ]
         [ { Cell.pin_name = "t"; pin_net = net; pin_rect = r } ])
  in
  let wall i0 i1 =
    let third = pitch /. 3.0 in
    let r = G.rect G.Metal1 (at i0 -. third) (at 6 -. third) (at i1 +. third) (at 34 +. third) in
    Cell.translate r.G.x0 r.G.y0 (Cell.make "wall" [ r ] [])
  in
  let frame = Cell.make "frame" [ G.rect G.Nwell 0.0 0.0 (at 95) (at 40) ] [] in
  (* pins in reverse connection order: the router connects the last one
     found first *)
  let side net ~mirror =
    let i k = if mirror then 90 - k else k in
    [ wall (min (i 14) (i 22)) (max (i 14) (i 22));
      pin net (i 30); pin net (i 10); pin net (i 26); pin net (i 18) ]
  in
  let cells = (frame :: side "a" ~mirror:false) @ side "b" ~mirror:true in
  let nets =
    [ { MR.net = "a"; n_class = MR.Neutral; coupling_budget = None };
      { MR.net = "b"; n_class = MR.Neutral; coupling_budget = None } ]
  in
  let r = MR.route ~symmetric_pairs:[ ("a", "b") ] ~cells ~nets () in
  Alcotest.(check (list string)) "all routed" [] r.MR.failed;
  Alcotest.(check int) "mirror-routed" 1 r.MR.symmetric_ok;
  List.iter
    (fun (w : MR.wire) -> Alcotest.(check int) ("vias of " ^ w.MR.w_net) 3 w.MR.vias)
    r.MR.wires;
  Alcotest.(check int) "total" 6 r.MR.total_vias;
  let got, want = route_both (cells, nets, [ ("a", "b") ]) in
  Alcotest.(check bool) "matches the reference search" true (got = want)

(* the per-domain workspace outlives its grid: a small grid searched after
   a large one must not see the large one's stamps, and vice versa *)
let test_router_workspace_reuse () =
  let large =
    routing_case ~topology:Mixsyn_circuit.Topology.folded_cascode ~seed:7 ~budgets:true
      ~symmetric:true
  in
  let small =
    routing_case ~topology:Mixsyn_circuit.Topology.ota_5t ~seed:7 ~budgets:false ~symmetric:true
  in
  List.iteri
    (fun i case ->
      let got, want = route_both case in
      Alcotest.(check bool) (Printf.sprintf "route %d matches" i) true (got = want))
    [ large; small; large; small ]

(* two domains routing at once each use their own workspace *)
let test_router_two_domains () =
  let cases =
    [| routing_case ~topology:Mixsyn_circuit.Topology.miller_ota ~seed:11 ~budgets:false
         ~symmetric:true;
       routing_case ~topology:Mixsyn_circuit.Topology.comparator ~seed:12 ~budgets:true
         ~symmetric:false |]
  in
  let route (cells, nets, symmetric_pairs) =
    route_fingerprint (MR.route ~symmetric_pairs ~cells ~nets ())
  in
  let alone = Array.map route cases in
  let racing =
    Array.map (fun case -> Domain.spawn (fun () -> List.init 3 (fun _ -> route case))) cases
  in
  Array.iteri
    (fun i d ->
      List.iter
        (fun fp -> Alcotest.(check bool) (Printf.sprintf "domain %d" i) true (fp = alone.(i)))
        (Domain.join d))
    racing

(* --- channel routing --------------------------------------------------------------- *)

let channel_pins =
  [ { CR.column = 0; edge = CR.Top; cp_net = "a" };
    { CR.column = 4; edge = CR.Bottom; cp_net = "a" };
    { CR.column = 2; edge = CR.Top; cp_net = "b" };
    { CR.column = 6; edge = CR.Bottom; cp_net = "b" };
    { CR.column = 5; edge = CR.Top; cp_net = "c" };
    { CR.column = 8; edge = CR.Bottom; cp_net = "c" } ]

let test_channel_density () =
  Alcotest.(check int) "density" 2 (CR.density ~pins:channel_pins)

let test_channel_routes_all () =
  let r = CR.route ~pins:channel_pins ~styles:[] () in
  Alcotest.(check int) "all nets" 3 (List.length r.CR.routed);
  (* trunks span their pin columns *)
  List.iter
    (fun rn ->
      let pins = List.filter (fun p -> p.CR.cp_net = rn.CR.rn_net) channel_pins in
      List.iter
        (fun p ->
          if p.CR.column < rn.CR.left || p.CR.column > rn.CR.right then
            Alcotest.fail "trunk misses a pin column")
        pins)
    r.CR.routed

let test_channel_vertical_constraints () =
  (* at column 3, net t is on top and net b on bottom: t must be above b *)
  let pins =
    [ { CR.column = 0; edge = CR.Top; cp_net = "t" };
      { CR.column = 3; edge = CR.Top; cp_net = "t" };
      { CR.column = 3; edge = CR.Bottom; cp_net = "b" };
      { CR.column = 6; edge = CR.Bottom; cp_net = "b" } ]
  in
  let r = CR.route ~pins ~styles:[] () in
  let track n = (List.find (fun x -> x.CR.rn_net = n) r.CR.routed).CR.track in
  if track "t" <= track "b" then Alcotest.fail "vertical constraint violated"

let test_channel_shield_between_incompatible () =
  (* column-overlapping trunks so the coupling term is live *)
  let pins =
    [ { CR.column = 0; edge = CR.Top; cp_net = "quiet" };
      { CR.column = 4; edge = CR.Top; cp_net = "quiet" };
      { CR.column = 2; edge = CR.Bottom; cp_net = "loud" };
      { CR.column = 6; edge = CR.Bottom; cp_net = "loud" } ]
  in
  let styles =
    [ { CR.cn_net = "quiet"; cn_class = MR.Sensitive; track_width = 1 };
      { CR.cn_net = "loud"; cn_class = MR.Noisy; track_width = 1 } ]
  in
  let shielded = CR.route ~shielding:true ~pins ~styles () in
  let bare = CR.route ~shielding:false ~pins ~styles () in
  if List.length shielded.CR.shields = 0 then Alcotest.fail "no shield inserted";
  let total r =
    List.fold_left (fun acc (_, _, c) -> acc +. c) 0.0 r.CR.channel_coupling
  in
  if total shielded >= total bare then Alcotest.fail "shield did not reduce coupling"

let test_channel_cycle_detected () =
  (* t above b at column 0, b above t at column 3: a cycle *)
  let pins =
    [ { CR.column = 0; edge = CR.Top; cp_net = "t" };
      { CR.column = 0; edge = CR.Bottom; cp_net = "b" };
      { CR.column = 3; edge = CR.Top; cp_net = "b" };
      { CR.column = 3; edge = CR.Bottom; cp_net = "t" } ]
  in
  match CR.route ~pins ~styles:[] () with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected cycle failure"

let test_channel_wide_nets () =
  let styles = [ { CR.cn_net = "a"; cn_class = MR.Neutral; track_width = 3 } ] in
  let r = CR.route ~pins:channel_pins ~styles () in
  let plain = CR.route ~pins:channel_pins ~styles:[] () in
  if r.CR.tracks_used <= plain.CR.tracks_used then
    Alcotest.fail "wide trunk should consume extra tracks"

let prop_channel_router_covers_pins =
  QCheck.Test.make ~name:"channel trunks span their pins" ~count:100
    QCheck.(pair (int_range 0 10000) (int_range 2 8))
    (fun (seed, n_nets) ->
      let rng = Mixsyn_util.Rng.create seed in
      let pins =
        List.concat
          (List.init n_nets (fun i ->
               let net = Printf.sprintf "n%d" i in
               let n_pins = 2 + Mixsyn_util.Rng.int rng 3 in
               List.init n_pins (fun _ ->
                   { CR.column = Mixsyn_util.Rng.int rng 30;
                     edge = (if Mixsyn_util.Rng.bool rng then CR.Top else CR.Bottom);
                     cp_net = net })))
      in
      match CR.route ~pins ~styles:[] () with
      | exception Failure _ -> true (* vertical-constraint cycle: allowed *)
      | r ->
        List.length r.CR.routed = n_nets
        && List.for_all
             (fun rn ->
               List.for_all
                 (fun p ->
                   p.CR.cp_net <> rn.CR.rn_net
                   || (p.CR.column >= rn.CR.left && p.CR.column <= rn.CR.right))
                 pins)
             r.CR.routed)

(* --- compaction --------------------------------------------------------------------- *)

let test_compaction_shrinks () =
  let far_apart =
    [ Cell.translate 0.0 0.0 (Gen.capacitor ~name:"c1" ~farads:1e-12 ~net_a:"a" ~net_b:"b" ());
      Cell.translate 500e-6 0.0 (Gen.capacitor ~name:"c2" ~farads:1e-12 ~net_a:"c" ~net_b:"d" ());
      Cell.translate 0.0 400e-6 (Gen.capacitor ~name:"c3" ~farads:1e-12 ~net_a:"e" ~net_b:"f" ()) ]
  in
  let before = Comp.bounding_area far_apart in
  let after = Comp.bounding_area (Comp.compact far_apart) in
  if after >= before then Alcotest.fail "compaction did not shrink the layout"

let test_compaction_no_overlap () =
  let cells =
    [ Cell.translate 0.0 0.0 (Gen.capacitor ~name:"c1" ~farads:1e-12 ~net_a:"a" ~net_b:"b" ());
      Cell.translate 300e-6 10e-6 (Gen.capacitor ~name:"c2" ~farads:2e-12 ~net_a:"c" ~net_b:"d" ()) ]
  in
  let compacted = Comp.compact cells in
  match compacted with
  | [ a; b ] ->
    let box c =
      Option.get (G.bbox (c.Cell.rects @ List.map (fun p -> p.Cell.pin_rect) c.Cell.pins))
    in
    if G.overlaps (box a) (box b) then Alcotest.fail "compaction created an overlap"
  | _ -> Alcotest.fail "cell count changed"

(* --- extraction ----------------------------------------------------------------------- *)

let test_extract_and_annotate () =
  let nl = miller_netlist () in
  let r = CF.koan ~seed:23 nl in
  let parasitics = r.CF.parasitics in
  if Ex.total_wiring_cap parasitics <= 0.0 then Alcotest.fail "no wiring capacitance";
  let annotated = Ex.annotate nl parasitics in
  if N.device_count annotated <= N.device_count nl then
    Alcotest.fail "annotation added no parasitics";
  (* the annotated netlist still solves *)
  (match Mixsyn_engine.Dc.solve ~tech annotated with
   | exception Mixsyn_engine.Dc.No_convergence _ -> Alcotest.fail "annotated netlist diverges"
   | _ -> ())

let test_extraction_degrades_bandwidth () =
  let nl = miller_netlist () in
  let r = CF.koan ~seed:23 nl in
  let annotated = Ex.annotate nl r.CF.parasitics in
  let ugf netlist =
    let op = Mixsyn_engine.Dc.solve ~tech netlist in
    let out = N.find_net netlist "out" in
    let freqs = Mixsyn_engine.Ac.log_sweep ~decades_from:0.0 ~decades_to:9.5 ~points_per_decade:8 in
    let ac = Mixsyn_engine.Ac.solve ~tech netlist op ~freqs in
    Option.value (Mixsyn_engine.Measure.unity_gain_freq (Mixsyn_engine.Measure.bode ac ~out))
      ~default:0.0
  in
  let before = ugf nl and after = ugf annotated in
  if after > before *. 1.001 then Alcotest.fail "parasitics cannot speed the circuit up"

(* --- cif export --------------------------------------------------------------- *)

let test_cif_export () =
  let nl = miller_netlist () in
  let r = CF.koan ~seed:23 nl in
  let cif =
    Mixsyn_layout.Cif.of_layout ~cells:r.CF.placed ~wires:r.CF.route.MR.wires ()
  in
  List.iter
    (fun needle ->
      let found =
        let nl_ = String.length needle and sl = String.length cif in
        let rec scan i = i + nl_ <= sl && (String.sub cif i nl_ = needle || scan (i + 1)) in
        scan 0
      in
      if not found then Alcotest.failf "CIF lacks %s" needle)
    [ "DS 1 1 1;"; "L CMF;"; "L CPG;"; "B "; "DF;"; "E" ];
  (* write/read roundtrip *)
  let path = Filename.temp_file "mixsyn" ".cif" in
  Mixsyn_layout.Cif.write_file ~path ~cells:r.CF.placed ~wires:r.CF.route.MR.wires ();
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check int) "file matches string" (String.length cif) len

let test_cif_layer_names_distinct () =
  let names = List.map Mixsyn_layout.Cif.layer_name G.all_layers in
  Alcotest.(check int) "distinct codes" (List.length names)
    (List.length (List.sort_uniq compare names))

(* --- sensitivity ------------------------------------------------------------------------- *)

let test_matching_pairs_found () =
  let nl = miller_netlist () in
  let pairs = Sens.matching_pairs nl in
  let has a b =
    List.exists (fun (x, y) -> (x = a && y = b) || (x = b && y = a)) pairs
  in
  Alcotest.(check bool) "diff pair" true (has "m1" "m2");
  Alcotest.(check bool) "mirror legs" true (has "m3" "m4")

let test_sensitivity_and_constraints () =
  let nl = miller_netlist () in
  let measure netlist =
    match Mixsyn_engine.Dc.solve ~tech netlist with
    | exception Mixsyn_engine.Dc.No_convergence _ -> None
    | op ->
      let out = N.find_net netlist "out" in
      let freqs = Mixsyn_engine.Ac.log_sweep ~decades_from:0.0 ~decades_to:9.5 ~points_per_decade:6 in
      let ac = Mixsyn_engine.Ac.solve ~tech netlist op ~freqs in
      let bode = Mixsyn_engine.Measure.bode ac ~out in
      Some [ ("ugf_hz", Option.value (Mixsyn_engine.Measure.unity_gain_freq bode) ~default:0.0) ]
  in
  let sens = Sens.analyze ~nets:[ "o1"; "out"; "nbias" ] nl ~measure in
  Alcotest.(check int) "three nets" 3 (List.length sens);
  (* o1 carries the miller node: adding capacitance there must move ugf *)
  let o1 = List.find (fun s -> s.Sens.sn_net = "o1") sens in
  (match List.assoc_opt "ugf_hz" o1.Sens.dperf_dcap with
   | Some slope -> if Float.abs slope <= 0.0 then Alcotest.fail "o1 insensitive?"
   | None -> Alcotest.fail "no ugf sensitivity");
  let bounds = Sens.map_constraints sens ~budgets:[ ("ugf_hz", 1e6) ] in
  List.iter
    (fun (_, b) -> if b <= 0.0 then Alcotest.fail "nonpositive capacitance bound")
    bounds

let () =
  let qt t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "layout"
    [ ( "geometry",
        [ Alcotest.test_case "rect normalisation" `Quick test_rect_normalisation;
          Alcotest.test_case "overlap" `Quick test_overlap;
          Alcotest.test_case "bbox" `Quick test_bbox;
          Alcotest.test_case "r90 swaps dims" `Quick test_transform_r90_swaps_dims;
          qt prop_transform_preserves_area ] );
      ( "generator",
        [ Alcotest.test_case "cell anchoring" `Quick test_cell_normalised_to_origin;
          Alcotest.test_case "mos pins" `Quick test_mos_cell_pins;
          Alcotest.test_case "folding" `Quick test_mos_folding_shrinks_height;
          Alcotest.test_case "pmos well" `Quick test_pmos_cell_has_well;
          Alcotest.test_case "stack nodes" `Quick test_stack_cell_nodes;
          Alcotest.test_case "capacitor area" `Quick test_capacitor_area_scales;
          Alcotest.test_case "resistor" `Quick test_resistor_squares ] );
      ( "stacker",
        [ Alcotest.test_case "covers all devices" `Quick test_stacker_covers_all_devices;
          Alcotest.test_case "merges diff pair" `Quick test_stacker_merges_diff_pair;
          Alcotest.test_case "exact = linear optimum" `Quick test_exact_matches_linear_optimum;
          Alcotest.test_case "junction cap saved" `Quick test_junction_capacitance_improves;
          Alcotest.test_case "polarity respected" `Quick test_stacker_respects_polarity ] );
      ( "placer",
        [ Alcotest.test_case "overlap free" `Quick test_placer_overlap_free;
          Alcotest.test_case "beats spread lineup" `Quick test_placer_beats_initial_wirelength;
          Alcotest.test_case "cost parts sane" `Quick test_placer_cost_parts_nonnegative;
          qt prop_eval_matches_full_recompute;
          qt prop_eval_revert_exact;
          Alcotest.test_case "place invariant in jobs" `Quick test_place_jobs_invariant;
          Alcotest.test_case "place allocation cap" `Quick test_place_allocation ] );
      ( "maze-router",
        [ Alcotest.test_case "miller complete" `Quick test_route_miller_complete;
          Alcotest.test_case "coupling reported" `Quick test_route_coupling_reported;
          Alcotest.test_case "class compatibility" `Quick test_net_class_compatibility;
          Alcotest.test_case "parasitic bounds" `Quick test_parasitic_bound_reduces_coupling;
          Alcotest.test_case "workspace reuse across grids" `Quick test_router_workspace_reuse;
          Alcotest.test_case "two domains at once" `Quick test_router_two_domains;
          Alcotest.test_case "vias per connection" `Quick test_router_vias_per_connection;
          qt prop_router_matches_oracle;
          qt prop_router_matches_oracle_synthetic ] );
      ( "channel-router",
        [ Alcotest.test_case "density" `Quick test_channel_density;
          Alcotest.test_case "routes all" `Quick test_channel_routes_all;
          Alcotest.test_case "vertical constraints" `Quick test_channel_vertical_constraints;
          Alcotest.test_case "shields" `Quick test_channel_shield_between_incompatible;
          Alcotest.test_case "cycle detection" `Quick test_channel_cycle_detected;
          Alcotest.test_case "wide nets" `Quick test_channel_wide_nets ] );
      ( "channel-properties",
        [ QCheck_alcotest.to_alcotest prop_channel_router_covers_pins ] );
      ( "compactor",
        [ Alcotest.test_case "shrinks" `Quick test_compaction_shrinks;
          Alcotest.test_case "no overlap" `Quick test_compaction_no_overlap ] );
      ( "extract",
        [ Alcotest.test_case "annotate" `Quick test_extract_and_annotate;
          Alcotest.test_case "bandwidth degrades" `Quick test_extraction_degrades_bandwidth ] );
      ( "cif",
        [ Alcotest.test_case "export" `Quick test_cif_export;
          Alcotest.test_case "layer names" `Quick test_cif_layer_names_distinct ] );
      ( "sensitivity",
        [ Alcotest.test_case "matching pairs" `Quick test_matching_pairs_found;
          Alcotest.test_case "constraint mapping" `Quick test_sensitivity_and_constraints ] ) ]
