module Fmat = Mixsyn_util.Fmat

type constraints = {
  max_ir_drop : float;
  max_spike : float;
  max_current_density : float;
  max_victim_bounce : float;
}

let default_constraints =
  { max_ir_drop = 0.05;
    max_spike = 0.10;
    max_current_density = 1000.0;  (* A per metre of width: 1 mA/um *)
    max_victim_bounce = 0.02 }

type metrics = {
  ir_drop : float;
  spike : float;
  victim_bounce : float;
  em_overload : float;
  metal_area : float;
}

type design = {
  pitch : float;
  strap_widths : float array;
  n_vertical : int;
  n_horizontal : int;
}

type report = {
  initial_design : design;
  final_design : design;
  before : metrics;
  after : metrics;
  iterations : int;
  meets : bool;
}

let sheet_resistance = 0.05 (* ohm/sq for thick top metal *)
let min_width = 2e-6
let max_width = 200e-6
let pad_conductance = 1e3
let node_decap = 20e-12       (* intrinsic decoupling per node, F *)
let block_decap_per_amp = 2e-9 (* block decap scales with its static draw *)

(* --- grid model ------------------------------------------------------ *)

type model = {
  nx : int;
  ny : int;
  node_xy : (float * float) array;
  g : float array array;
  c : float array array;
  (* per segment: (node a, node b, strap index, length) *)
  segments : (int * int * int * float) array;
  taps : (Block.t * int) list;   (** block -> nearest node *)
  pads : int list;
}

let build_model (fp : Floorplan.result) design =
  let w = fp.Floorplan.chip_w and h = fp.Floorplan.chip_h in
  let nx = design.n_vertical and ny = design.n_horizontal in
  let xs = Array.init nx (fun i -> w *. float_of_int i /. float_of_int (max 1 (nx - 1))) in
  let ys = Array.init ny (fun j -> h *. float_of_int j /. float_of_int (max 1 (ny - 1))) in
  let node i j = (j * nx) + i in
  let n = nx * ny in
  let node_xy = Array.init n (fun k -> (xs.(k mod nx), ys.(k / nx))) in
  let g = Array.make_matrix n n 0.0 in
  let c = Array.make_matrix n n 0.0 in
  let segments = ref [] in
  let add_segment a b strap length =
    let width = design.strap_widths.(strap) in
    let resistance = sheet_resistance *. length /. Float.max width 1e-9 in
    let conductance = 1.0 /. resistance in
    g.(a).(a) <- g.(a).(a) +. conductance;
    g.(b).(b) <- g.(b).(b) +. conductance;
    g.(a).(b) <- g.(a).(b) -. conductance;
    g.(b).(a) <- g.(b).(a) -. conductance;
    segments := (a, b, strap, length) :: !segments
  in
  (* vertical straps: strap index i, connecting (i, j)-(i, j+1) *)
  for i = 0 to nx - 1 do
    for j = 0 to ny - 2 do
      add_segment (node i j) (node i (j + 1)) i (ys.(j + 1) -. ys.(j))
    done
  done;
  (* horizontal straps: strap index nx + j *)
  for j = 0 to ny - 1 do
    for i = 0 to nx - 2 do
      add_segment (node i j) (node (i + 1) j) (nx + j) (xs.(i + 1) -. xs.(i))
    done
  done;
  (* node decap *)
  for k = 0 to n - 1 do
    c.(k).(k) <- c.(k).(k) +. node_decap
  done;
  (* block taps: nearest node; add block decap there *)
  let nearest (px, py) =
    let best = ref 0 and best_d = ref infinity in
    Array.iteri
      (fun k (x, y) ->
        let d = ((x -. px) ** 2.0) +. ((y -. py) ** 2.0) in
        if d < !best_d then begin
          best := k;
          best_d := d
        end)
      node_xy;
    !best
  in
  let taps =
    List.map
      (fun (p : Floorplan.placement) ->
        let bw = if p.Floorplan.rotated then p.Floorplan.block.Block.bh else p.Floorplan.block.Block.bw in
        let bh = if p.Floorplan.rotated then p.Floorplan.block.Block.bw else p.Floorplan.block.Block.bh in
        let tap = nearest (p.Floorplan.x +. (bw /. 2.0), p.Floorplan.y +. (bh /. 2.0)) in
        c.(tap).(tap) <-
          c.(tap).(tap) +. (block_decap_per_amp *. p.Floorplan.block.Block.i_static);
        (p.Floorplan.block, tap))
      fp.Floorplan.placements
  in
  (* pads at the four corners, tied to the ideal rail *)
  let pads = [ node 0 0; node (nx - 1) 0; node 0 (ny - 1); node (nx - 1) (ny - 1) ] in
  List.iter (fun p -> g.(p).(p) <- g.(p).(p) +. pad_conductance) pads;
  { nx; ny; node_xy; g; c; segments = Array.of_list !segments; taps; pads }

(* --- evaluation ------------------------------------------------------ *)

(* node drops of the DC grid under a load-current vector *)
let dc_drops model i_load =
  let n = Array.length i_load in
  Fmat.with_real n (fun ws ->
      Fmat.Real.load ws model.g;
      Fmat.Real.set_rhs ws i_load;
      Fmat.Real.factor ws;
      let drops = Array.make n 0.0 in
      Fmat.Real.solve ws drops;
      drops)

let evaluate ?(vdd = 5.0) ?(awe_order = 3) fp design =
  let model = build_model fp design in
  let n = Array.length model.node_xy in
  (* DC: drops relative to the ideal rail; loads sink current *)
  let i_load = Array.make n 0.0 in
  List.iter
    (fun ((b : Block.t), tap) -> i_load.(tap) <- i_load.(tap) +. b.Block.i_static)
    model.taps;
  let drops = dc_drops model i_load in
  let ir_drop = Array.fold_left Float.max 0.0 drops /. vdd in
  (* EM: segment currents *)
  let em_overload =
    Array.fold_left
      (fun acc (a, b, strap, length) ->
        let width = design.strap_widths.(strap) in
        let resistance = sheet_resistance *. length /. Float.max width 1e-9 in
        let current = Float.abs (drops.(a) -. drops.(b)) /. resistance in
        let density = current /. Float.max width 1e-9 in
        Float.max acc (density /. default_constraints.max_current_density))
      0.0 model.segments
  in
  (* transient: AWE transfer impedance from each aggressor tap *)
  let victims =
    List.filter (fun ((b : Block.t), _) -> Block.is_victim b) model.taps
  in
  let aggressors =
    List.filter (fun ((b : Block.t), _) -> b.Block.i_peak > 0.0) model.taps
  in
  let spike = ref 0.0 and victim_bounce = ref 0.0 in
  List.iter
    (fun ((b : Block.t), tap) ->
      let bvec = Array.make n 0.0 in
      bvec.(tap) <- 1.0;
      let peak_at out =
        match Mixsyn_awe.Awe.of_network ~g:model.g ~c:model.c ~b:bvec ~out ~order:awe_order with
        | exception Failure _ -> 0.0
        | tf ->
          let tf = Mixsyn_awe.Awe.stable_part tf in
          (* bounce of a current step of i_peak held for t_spike *)
          let samples = 8 in
          let peak = ref 0.0 in
          for k = 1 to samples do
            let t = b.Block.t_spike *. float_of_int k /. float_of_int samples in
            peak := Float.max !peak (Float.abs (Mixsyn_awe.Awe.step_response tf t))
          done;
          b.Block.i_peak *. !peak
      in
      spike := Float.max !spike (peak_at tap /. vdd);
      List.iter
        (fun ((_ : Block.t), victim_tap) ->
          victim_bounce := Float.max !victim_bounce (peak_at victim_tap /. vdd))
        victims)
    aggressors;
  let metal_area =
    Array.fold_left
      (fun acc (_, _, strap, length) -> acc +. (design.strap_widths.(strap) *. length))
      0.0 model.segments
  in
  { ir_drop; spike = !spike; victim_bounce = !victim_bounce; em_overload; metal_area }

(* --- synthesis ------------------------------------------------------- *)

let violations constraints m =
  Float.max 0.0 ((m.ir_drop /. constraints.max_ir_drop) -. 1.0)
  +. Float.max 0.0 ((m.spike /. constraints.max_spike) -. 1.0)
  +. Float.max 0.0 ((m.victim_bounce /. constraints.max_victim_bounce) -. 1.0)
  +. Float.max 0.0 (m.em_overload -. 1.0)

let synthesize ?(vdd = 5.0) ?(constraints = default_constraints) ?(pitch = 0.8e-3)
    ?(max_iterations = 30) fp =
  let n_vertical = max 3 (int_of_float (fp.Floorplan.chip_w /. pitch) + 1) in
  let n_horizontal = max 3 (int_of_float (fp.Floorplan.chip_h /. pitch) + 1) in
  let initial_design =
    { pitch;
      strap_widths = Array.make (n_vertical + n_horizontal) min_width;
      n_vertical;
      n_horizontal }
  in
  let before = evaluate ~vdd fp initial_design in
  let design = ref { initial_design with strap_widths = Array.copy initial_design.strap_widths } in
  let iterations = ref 0 in
  let current = ref before in
  while violations constraints !current > 0.0 && !iterations < max_iterations do
    incr iterations;
    (* sensitivity-guided widening: find the worst-loaded straps via the DC
       segment currents and widen them; global violations widen everything *)
    let model = build_model fp !design in
    let n = Array.length model.node_xy in
    let i_load = Array.make n 0.0 in
    List.iter
      (fun ((b : Block.t), tap) ->
        i_load.(tap) <- i_load.(tap) +. b.Block.i_static +. (0.3 *. b.Block.i_peak))
      model.taps;
    let drops = dc_drops model i_load in
    let strap_current = Array.make (Array.length !design.strap_widths) 0.0 in
    Array.iter
      (fun (a, b, strap, length) ->
        let width = !design.strap_widths.(strap) in
        let resistance = sheet_resistance *. length /. Float.max width 1e-9 in
        let current = Float.abs (drops.(a) -. drops.(b)) /. resistance in
        strap_current.(strap) <- Float.max strap_current.(strap) current)
      model.segments;
    let worst = Array.fold_left Float.max 0.0 strap_current in
    let widths = Array.copy !design.strap_widths in
    Array.iteri
      (fun s current ->
        (* electromigration drives the width directly (J = I/w must land
           under the limit even as the widened strap attracts more current);
           IR/spike violations widen the most-loaded straps *)
        let em_width = 1.2 *. current /. constraints.max_current_density in
        let target =
          if current > 0.5 *. worst then Float.max (widths.(s) *. 1.5) em_width
          else Float.max widths.(s) em_width
        in
        widths.(s) <- Float.min max_width target)
      strap_current;
    design := { !design with strap_widths = widths };
    current := evaluate ~vdd fp !design
  done;
  { initial_design;
    final_design = !design;
    before;
    after = !current;
    iterations = !iterations;
    meets = violations constraints !current = 0.0 }
