module Netlist = Mixsyn_circuit.Netlist

type report = {
  flow_name : string;
  placed : Cell.t list;
  route : Maze_router.result;
  area_m2 : float;
  wirelength_m : float;
  vias : int;
  complete : bool;
  sensitive_coupling_f : float;
  parasitics : Extract.net_parasitics list;
}

let classify_net name =
  match name with
  | "inp" | "inn" | "csa_in" | "d1" | "o1" -> Maze_router.Sensitive
  | "vdd" | "0" | "out" | "clk" -> Maze_router.Noisy
  | _ -> Maze_router.Neutral

let target_finger = 20e-6

let items_of_netlist nl =
  let devices = Netlist.mos_list nl in
  let stacking = Stacker.linear devices in
  let resolve node_str = Netlist.net_name nl (int_of_string node_str) in
  let device_items =
    List.map
      (fun (st : Stacker.stack) ->
        match st.Stacker.devices with
        | [ single ] ->
          (* single device: offer fold variants (KOAN's reshaping moves) *)
          let m = Netlist.find_mos nl single in
          let dn = Netlist.net_name nl m.Netlist.drain in
          let gn = Netlist.net_name nl m.Netlist.gate in
          let sn = Netlist.net_name nl m.Netlist.source in
          let variant folds =
            Generator.mos ~name:single ~polarity:m.Netlist.polarity ~w:m.Netlist.w
              ~l:m.Netlist.l ~folds ~drain_net:dn ~gate_net:gn ~source_net:sn ()
          in
          let base_folds = Generator.choose_folds ~w:m.Netlist.w target_finger in
          let folds_options =
            List.sort_uniq compare [ base_folds; max 1 (base_folds / 2); base_folds * 2 ]
          in
          { Placer.item_name = single;
            variants = Array.of_list (List.map variant folds_options) }
        | _ ->
          let gates = List.map (fun (d, g) -> (d, resolve g)) st.Stacker.gates in
          let nodes = List.map resolve st.Stacker.nodes in
          let cell =
            Generator.stack ~name:st.Stacker.st_name ~polarity:st.Stacker.polarity
              ~w:st.Stacker.st_w ~l:st.Stacker.st_l ~gates ~nodes ()
          in
          { Placer.item_name = st.Stacker.st_name; variants = [| cell |] })
      stacking.Stacker.stacks
  in
  let passive_items =
    List.filter_map
      (function
        | Netlist.Capacitor { c_name; a; b; farads } when farads > 5e-15 ->
          Some
            { Placer.item_name = c_name;
              variants =
                [| Generator.capacitor ~name:c_name ~farads ~net_a:(Netlist.net_name nl a)
                     ~net_b:(Netlist.net_name nl b) () |] }
        | Netlist.Resistor { r_name; a; b; ohms } when ohms > 100.0 ->
          Some
            { Placer.item_name = r_name;
              variants =
                [| Generator.resistor ~name:r_name ~ohms ~net_a:(Netlist.net_name nl a)
                     ~net_b:(Netlist.net_name nl b) () |] }
        | Netlist.Capacitor _ | Netlist.Resistor _ | Netlist.Mos _ | Netlist.Vsource _
        | Netlist.Isource _ | Netlist.Vccs _ -> None)
      (Netlist.elements nl)
  in
  let items = Array.of_list (device_items @ passive_items) in
  (* nets: everything the pins mention except supplies *)
  let net_names = Hashtbl.create 16 in
  Array.iter
    (fun (item : Placer.item) ->
      Array.iter
        (fun (cell : Cell.t) ->
          List.iter
            (fun (p : Cell.pin) -> Hashtbl.replace net_names p.Cell.pin_net ())
            cell.Cell.pins)
        item.Placer.variants)
    items;
  let nets =
    Hashtbl.fold
      (fun name () acc ->
        if name = "vdd" || name = "0" then acc
        else
          { Maze_router.net = name; n_class = classify_net name; coupling_budget = None }
          :: acc)
      net_names []
  in
  (* symmetry groups from the schematic, mapped onto item indices.  A device
     absorbed into a multi-device stack maps to the stack's item, so a
     matched pair split across two stacks still constrains the placer
     (previously such pairs were silently dropped).  Devices in one shared
     stack are matched by construction and need no constraint. *)
  let stack_index = Hashtbl.create 16 in
  List.iteri
    (fun i (st : Stacker.stack) ->
      List.iter (fun d -> Hashtbl.replace stack_index d i) st.Stacker.devices)
    stacking.Stacker.stacks;
  let item_of_device d = Hashtbl.find_opt stack_index d in
  let mirror_pairs =
    List.filter_map
      (fun (a, b) ->
        match (item_of_device a, item_of_device b) with
        | Some i, Some j when i <> j -> Some (i, j)
        | Some _, Some _ | Some _, None | None, Some _ | None, None -> None)
      (Sensitivity.matching_pairs nl)
  in
  (items, nets, { Placer.mirror_pairs; self_symmetric = [] })

let tagged_geometry (r : report) =
  List.concat_map
    (fun (c : Cell.t) -> List.map (fun rect -> (c.Cell.cell_name, rect)) c.Cell.rects)
    r.placed
  @ List.concat_map
      (fun (w : Maze_router.wire) ->
        List.map (fun rect -> ("net:" ^ w.Maze_router.w_net, rect)) w.Maze_router.rects)
      r.route.Maze_router.wires

let finish ~flow_name ~items ~placement ~nets ~symmetric_pairs =
  let placed = Placer.realized items placement in
  let route = Maze_router.route ~symmetric_pairs ~cells:placed ~nets () in
  let everything =
    List.concat_map (fun (c : Cell.t) -> c.Cell.rects) placed
    @ List.concat_map (fun (w : Maze_router.wire) -> w.Maze_router.rects) route.Maze_router.wires
  in
  let area = match Geom.bbox everything with Some bb -> Geom.area bb | None -> 0.0 in
  let parasitics =
    Extract.of_layout ~wires:route.Maze_router.wires ~coupling:route.Maze_router.coupling ()
  in
  let sensitive_coupling =
    List.fold_left
      (fun acc (spec : Maze_router.net_spec) ->
        if spec.Maze_router.n_class = Maze_router.Sensitive then
          acc +. Maze_router.coupling_on route spec.Maze_router.net
        else acc)
      0.0 nets
  in
  { flow_name;
    placed;
    route;
    area_m2 = area;
    wirelength_m = route.Maze_router.total_length;
    vias = route.Maze_router.total_vias;
    complete = route.Maze_router.failed = [];
    sensitive_coupling_f = sensitive_coupling;
    parasitics }

let symmetric_net_pairs nets =
  (* differential input nets route as a mirrored pair when both exist *)
  let names = List.map (fun (s : Maze_router.net_spec) -> s.Maze_router.net) nets in
  if List.mem "inp" names && List.mem "inn" names then [ ("inp", "inn") ] else []

let max_placement_attempts = 4

let koan ?(seed = 23) ?(coupling_budgets = []) ?restarts nl =
  Mixsyn_util.Telemetry.with_span "layout.koan" @@ fun () ->
  let items, nets, symmetry = items_of_netlist nl in
  let nets =
    List.map
      (fun (spec : Maze_router.net_spec) ->
        match List.assoc_opt spec.Maze_router.net coupling_budgets with
        | Some budget -> { spec with Maze_router.coupling_budget = Some budget }
        | None -> spec)
      nets
  in
  (* routability is a property of the placement: when the router cannot
     complete, try further annealing seeds and keep the best attempt *)
  let attempt k =
    Mixsyn_util.Telemetry.count "layout.placement_attempts";
    let placement =
      Mixsyn_util.Telemetry.with_span "layout.place" (fun () ->
          Placer.place ~seed:(seed + (1000 * k)) ?restarts items symmetry)
    in
    Mixsyn_util.Telemetry.with_span "layout.route" (fun () ->
        finish ~flow_name:(Printf.sprintf "koan-seed%d" seed) ~items ~placement ~nets
          ~symmetric_pairs:(symmetric_net_pairs nets))
  in
  (* first complete attempt in seed order, otherwise the fewest failed
     nets with ties to the earliest seed *)
  let rec search k best =
    if k >= max_placement_attempts then best
    else begin
      let r = attempt k in
      if r.complete then r
      else
        search (k + 1)
          (if List.length best.route.Maze_router.failed
              <= List.length r.route.Maze_router.failed
           then best
           else r)
    end
  in
  let first = attempt 0 in
  if first.complete then first else search 1 first

let procedural ?(style = 0) nl =
  let items, nets, _symmetry = items_of_netlist nl in
  let n = Array.length items in
  let is_pmos (item : Placer.item) =
    let cell = item.Placer.variants.(0) in
    List.exists (fun r -> r.Geom.layer = Geom.Pdiff) cell.Cell.rects
  in
  let is_passive (item : Placer.item) =
    let cell = item.Placer.variants.(0) in
    not (List.exists (fun r -> r.Geom.layer = Geom.Pdiff || r.Geom.layer = Geom.Ndiff) cell.Cell.rects)
  in
  let spacing = 6e-6 in
  let place_row items_in_row y =
    let x = ref 0.0 in
    List.map
      (fun (i, item : int * Placer.item) ->
        let cell = item.Placer.variants.(0) in
        let site = { Placer.variant = 0; orient = Geom.R0; x = !x; y } in
        x := !x +. cell.Cell.cw +. spacing;
        (i, site))
      items_in_row
  in
  let indexed = List.init n (fun i -> (i, items.(i))) in
  let pmos_row = List.filter (fun (_, it) -> is_pmos it) indexed in
  let passives = List.filter (fun (_, it) -> is_passive it && not (is_pmos it)) indexed in
  let nmos_row =
    List.filter (fun (_, it) -> (not (is_pmos it)) && not (is_passive it)) indexed
  in
  let arrangement =
    match style mod 4 with
    | 0 ->
      (* classic: P row above N row, passives to the right at mid height *)
      place_row pmos_row 60e-6 @ place_row nmos_row 0.0
      @ place_row (List.map (fun (i, it) -> (i, it)) passives) 120e-6
    | 1 ->
      (* single row *)
      place_row indexed 0.0
    | 2 ->
      (* reversed device order, passives first *)
      place_row (List.rev pmos_row) 60e-6 @ place_row (List.rev nmos_row) 0.0
      @ place_row passives 120e-6
    | _ ->
      (* tall: one device per row *)
      List.mapi
        (fun k (i, _) ->
          (i, { Placer.variant = 0; orient = Geom.R0; x = 0.0; y = float_of_int k *. 45e-6 }))
        indexed
  in
  let placement =
    let sites = Array.make n { Placer.variant = 0; orient = Geom.R0; x = 0.0; y = 0.0 } in
    List.iter (fun (i, site) -> sites.(i) <- site) arrangement;
    sites
  in
  finish ~flow_name:(Printf.sprintf "procedural-style%d" style) ~items ~placement ~nets
    ~symmetric_pairs:[]
