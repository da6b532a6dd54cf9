module Rng = Mixsyn_util.Rng

type item = {
  item_name : string;
  variants : Cell.t array;
}

type site = {
  variant : int;
  orient : Geom.orientation;
  x : float;
  y : float;
}

type placement = site array

type symmetry = {
  mirror_pairs : (int * int) list;
  self_symmetric : int list;
}

let no_symmetry = { mirror_pairs = []; self_symmetric = [] }

(* cost weights.  Scales: areas ~1e-10 m^2, wires ~1e-4 m; normalise to
   comparable units *)
let w_overlap = 5e12
let w_area = 1e12
let w_wire = 3e5
let w_symmetry = 3e5

let realized_cell item site =
  let cell = Cell.transform site.orient item.variants.(site.variant) in
  Cell.translate site.x site.y cell

let realized items placement =
  Array.to_list (Array.mapi (fun i site -> realized_cell items.(i) site) placement)

let footprint item site =
  let cell = item.variants.(site.variant) in
  let w, h =
    match site.orient with
    | Geom.R90 | Geom.R270 | Geom.MXR90 | Geom.MYR90 -> (cell.Cell.ch, cell.Cell.cw)
    | Geom.R0 | Geom.R180 | Geom.MX | Geom.MY -> (cell.Cell.cw, cell.Cell.ch)
  in
  Geom.rect Geom.Metal1 site.x site.y (site.x +. w) (site.y +. h)

let orient_index = function
  | Geom.R0 -> 0
  | Geom.R90 -> 1
  | Geom.R180 -> 2
  | Geom.R270 -> 3
  | Geom.MX -> 4
  | Geom.MY -> 5
  | Geom.MXR90 -> 6
  | Geom.MYR90 -> 7

(* ---- incremental cost evaluator --------------------------------------- *)

(* The annealer proposes ~10^5 single-cell moves per chain.  Rebuilding
   realized cells, a fresh net table and all O(n^2) bloated boxes per move
   (the old [cost_parts]) allocated ~9e8 minor words per chain, and in
   OCaml 5 every minor collection stops all domains — multistart chains
   serialized each other into a slowdown.  [Eval] keeps the placement
   state in flat arrays (per-cell footprint and halo-bloated boxes,
   per-net HPWL bounds over precomputed transformed pin offsets) and
   evaluates a move by recomputing only what it touches: the moved cell's
   boxes, the nets on that cell, the full bbox (O(n) flops, no
   allocation), and the symmetry terms only when a constrained cell
   moved.  Every cached entry is recomputed with arithmetic identical to
   a from-scratch build, so after any move sequence the state is
   *bit-equal* to a fresh evaluator on the same placement — the property
   the tests pin down. *)
module Eval = struct
  (* per (item, variant): footprint dims and transformed pin rects, one
     row per orientation in [Geom.all_orientations] order *)
  type vtab = {
    v_fw : float array;          (* footprint width, per orientation *)
    v_fh : float array;
    v_nets : int array;          (* per pin: net id (orientation-invariant) *)
    v_px0 : float array array;   (* per orientation: per pin, rect x0 *)
    v_py0 : float array array;
    v_px1 : float array array;
    v_py1 : float array array;
  }

  (* shared read-only tables, built once per (items, sym, rules)
     and safely shared across chains on different domains *)
  type tables = {
    t_n : int;
    t_halo : float;
    t_vt : vtab array array;        (* per item, per variant *)
    t_n_nets : int;
    t_item_nets : int array array;  (* per item: distinct net ids, ascending *)
    t_net_items : int array array;  (* per net: items with pins on it, ascending *)
    t_pairs : (int * int) array;    (* mirror pairs, in declaration order *)
    t_selfs : int array;            (* self-symmetric items, in order *)
    t_sym_member : bool array;      (* per item: referenced by any constraint *)
    t_any_sym : bool;
  }

  (* all-float scratch: flat record, so accumulator stores never box *)
  type scratch = {
    mutable sc_x0 : float;
    mutable sc_y0 : float;
    mutable sc_x1 : float;
    mutable sc_y1 : float;
    mutable sc_acc : float;
  }

  type pending = P_none | P_one | P_swap

  type t = {
    tb : tables;
    (* the placement proper *)
    var_ : int array;
    ori : int array;
    sx : float array;
    sy : float array;
    (* derived state, always bit-equal to a from-scratch rebuild *)
    fx0 : float array; fy0 : float array; fx1 : float array; fy1 : float array;
    bx0 : float array; by0 : float array; bx1 : float array; by1 : float array;
    nx0 : float array; ny0 : float array; nx1 : float array; ny1 : float array;
    ncount : int array;             (* pins currently on each net *)
    mutable bbox_area : float;
    mutable sym_v : float;
    scr : scratch;
    mutable icnt : int;
    (* pending tentative move, for [revert] *)
    mutable pend : pending;
    mutable pi : int; mutable pj : int;
    mutable pi_var : int; mutable pi_ori : int;
    mutable pi_x : float; mutable pi_y : float;
    mutable pj_x : float; mutable pj_y : float;
    (* best-seen snapshot for [remember]/[recall] *)
    s_var : int array; s_ori : int array; s_x : float array; s_y : float array;
  }

  (* -- table construction ----------------------------------------------- *)

  let make_tables ~rules (items : item array) (sym : symmetry) =
    let n = Array.length items in
    if n = 0 then invalid_arg "Placer: empty item set";
    let net_ids : (string, int) Hashtbl.t = Hashtbl.create 32 in
    let next_net = ref 0 in
    (* net ids in first-appearance order: items ascending, variants
       ascending, pins in cell order — deterministic *)
    let net_id name =
      match Hashtbl.find_opt net_ids name with
      | Some g -> g
      | None ->
        let g = !next_net in
        incr next_net;
        Hashtbl.replace net_ids name g;
        g
    in
    let vt =
      Array.map
        (fun item ->
          Array.map
            (fun cell ->
              let n_orient = Array.length Geom.all_orientations in
              let transformed =
                Array.map (fun o -> Cell.transform o cell) Geom.all_orientations
              in
              let pins0 = transformed.(0).Cell.pins in
              let npins = List.length pins0 in
              let v_nets =
                Array.of_list (List.map (fun p -> net_id p.Cell.pin_net) pins0)
              in
              let row f =
                Array.init n_orient (fun o ->
                    let arr = Array.make npins 0.0 in
                    List.iteri
                      (fun p pin -> arr.(p) <- f pin.Cell.pin_rect)
                      transformed.(o).Cell.pins;
                    arr)
              in
              (* footprint dims come from the *untransformed* variant, with
                 the same swap rule as [footprint] *)
              let fw = Array.make n_orient cell.Cell.cw in
              let fh = Array.make n_orient cell.Cell.ch in
              List.iter
                (fun o ->
                  let k = orient_index o in
                  fw.(k) <- cell.Cell.ch;
                  fh.(k) <- cell.Cell.cw)
                [ Geom.R90; Geom.R270; Geom.MXR90; Geom.MYR90 ];
              { v_fw = fw;
                v_fh = fh;
                v_nets;
                v_px0 = row (fun r -> r.Geom.x0);
                v_py0 = row (fun r -> r.Geom.y0);
                v_px1 = row (fun r -> r.Geom.x1);
                v_py1 = row (fun r -> r.Geom.y1) })
            item.variants)
        items
    in
    let n_nets = !next_net in
    let item_nets =
      Array.map
        (fun rows ->
          let seen = Hashtbl.create 8 in
          Array.iter
            (fun v -> Array.iter (fun g -> Hashtbl.replace seen g ()) v.v_nets)
            rows;
          let l = Hashtbl.fold (fun g () acc -> g :: acc) seen [] in
          Array.of_list (List.sort compare l))
        vt
    in
    let net_items =
      let members = Array.make n_nets [] in
      for i = n - 1 downto 0 do
        Array.iter (fun g -> members.(g) <- i :: members.(g)) item_nets.(i)
      done;
      Array.map Array.of_list members
    in
    let sym_member = Array.make n false in
    List.iter
      (fun (i, j) ->
        sym_member.(i) <- true;
        sym_member.(j) <- true)
      sym.mirror_pairs;
    List.iter (fun i -> sym_member.(i) <- true) sym.self_symmetric;
    { t_n = n;
      t_halo = 1.2 *. rules.Rules.route_pitch;
      t_vt = vt;
      t_n_nets = n_nets;
      t_item_nets = item_nets;
      t_net_items = net_items;
      t_pairs = Array.of_list sym.mirror_pairs;
      t_selfs = Array.of_list sym.self_symmetric;
      t_sym_member = sym_member;
      t_any_sym = sym.mirror_pairs <> [] || sym.self_symmetric <> [] }

  (* -- exact refresh of derived state ----------------------------------- *)

  (* footprint box: [Geom.rect Metal1 x y (x+.w) (y+.h)] with w,h >= 0, so
     the min/max normalization is the identity; bloated box per
     [Geom.bloat t_halo] *)
  let refresh_cell t i =
    let vt = t.tb.t_vt.(i).(t.var_.(i)) in
    let o = t.ori.(i) in
    let x = t.sx.(i) and y = t.sy.(i) in
    let x1 = x +. vt.v_fw.(o) and y1 = y +. vt.v_fh.(o) in
    t.fx0.(i) <- x;
    t.fy0.(i) <- y;
    t.fx1.(i) <- x1;
    t.fy1.(i) <- y1;
    let halo = t.tb.t_halo in
    t.bx0.(i) <- x -. halo;
    t.by0.(i) <- y -. halo;
    t.bx1.(i) <- x1 +. halo;
    t.by1.(i) <- y1 +. halo

  (* HPWL bounds of net [g]: min/max over realized pin centres, scanned in
     item order then pin order — the same value sequence the old
     per-placement rebuild inserted, and min/max are order-insensitive,
     so the bounds are bit-equal to it *)
  let refresh_net t g =
    let s = t.scr in
    s.sc_x0 <- infinity;
    s.sc_y0 <- infinity;
    s.sc_x1 <- neg_infinity;
    s.sc_y1 <- neg_infinity;
    t.icnt <- 0;
    let members = t.tb.t_net_items.(g) in
    for k = 0 to Array.length members - 1 do
      let i = members.(k) in
      let vt = t.tb.t_vt.(i).(t.var_.(i)) in
      let o = t.ori.(i) in
      let px0 = vt.v_px0.(o) and py0 = vt.v_py0.(o) in
      let px1 = vt.v_px1.(o) and py1 = vt.v_py1.(o) in
      let dx = t.sx.(i) and dy = t.sy.(i) in
      for p = 0 to Array.length vt.v_nets - 1 do
        if vt.v_nets.(p) = g then begin
          (* centre of the translated pin rect, associated exactly as
             [Geom.center (Geom.translate dx dy r)] *)
          let cx = 0.5 *. ((px0.(p) +. dx) +. (px1.(p) +. dx)) in
          let cy = 0.5 *. ((py0.(p) +. dy) +. (py1.(p) +. dy)) in
          s.sc_x0 <- Float.min s.sc_x0 cx;
          s.sc_y0 <- Float.min s.sc_y0 cy;
          s.sc_x1 <- Float.max s.sc_x1 cx;
          s.sc_y1 <- Float.max s.sc_y1 cy;
          t.icnt <- t.icnt + 1
        end
      done
    done;
    t.nx0.(g) <- s.sc_x0;
    t.ny0.(g) <- s.sc_y0;
    t.nx1.(g) <- s.sc_x1;
    t.ny1.(g) <- s.sc_y1;
    t.ncount.(g) <- t.icnt

  (* bounding box over all footprints, folded in index order exactly like
     [Geom.bbox] over the box list *)
  let refresh_bbox t =
    let s = t.scr in
    s.sc_x0 <- t.fx0.(0);
    s.sc_y0 <- t.fy0.(0);
    s.sc_x1 <- t.fx1.(0);
    s.sc_y1 <- t.fy1.(0);
    for i = 1 to t.tb.t_n - 1 do
      s.sc_x0 <- Float.min s.sc_x0 t.fx0.(i);
      s.sc_y0 <- Float.min s.sc_y0 t.fy0.(i);
      s.sc_x1 <- Float.max s.sc_x1 t.fx1.(i);
      s.sc_y1 <- Float.max s.sc_y1 t.fy1.(i)
    done;
    t.bbox_area <- (s.sc_x1 -. s.sc_x0) *. (s.sc_y1 -. s.sc_y0)

  let cxf t i = 0.5 *. (t.fx0.(i) +. t.fx1.(i))
  let cyf t i = 0.5 *. (t.fy0.(i) +. t.fy1.(i))

  (* symmetry violation, with the centre sum, axis division and violation
     accumulation associated exactly as the old list-based code *)
  let sym_term t =
    let tb = t.tb in
    if not tb.t_any_sym then 0.0
    else begin
      let s = t.scr in
      s.sc_acc <- 0.0;
      for k = 0 to Array.length tb.t_pairs - 1 do
        let i, j = tb.t_pairs.(k) in
        s.sc_acc <- s.sc_acc +. (0.5 *. (cxf t i +. cxf t j))
      done;
      for k = 0 to Array.length tb.t_selfs - 1 do
        s.sc_acc <- s.sc_acc +. cxf t tb.t_selfs.(k)
      done;
      let count = Array.length tb.t_pairs + Array.length tb.t_selfs in
      let axis = s.sc_acc /. float_of_int count in
      s.sc_acc <- 0.0;
      for k = 0 to Array.length tb.t_pairs - 1 do
        let i, j = tb.t_pairs.(k) in
        s.sc_acc <-
          s.sc_acc
          +. Float.abs (cxf t i +. cxf t j -. (2.0 *. axis))
          +. Float.abs (cyf t i -. cyf t j)
      done;
      for k = 0 to Array.length tb.t_selfs - 1 do
        s.sc_acc <- s.sc_acc +. Float.abs (cxf t tb.t_selfs.(k) -. axis)
      done;
      s.sc_acc
    end

  let refresh_sym t = t.sym_v <- sym_term t

  (* -- queries (fixed summation order) ---------------------------------- *)

  (* halo-bloated pairwise overlap, identical arithmetic to
     [Geom.intersection_area (bloat halo bi) (bloat halo bj)] *)
  let overlap_total t =
    let s = t.scr in
    s.sc_acc <- 0.0;
    let n = t.tb.t_n in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let w = Float.min t.bx1.(i) t.bx1.(j) -. Float.max t.bx0.(i) t.bx0.(j) in
        let h = Float.min t.by1.(i) t.by1.(j) -. Float.max t.by0.(i) t.by0.(j) in
        if w > 0.0 && h > 0.0 then s.sc_acc <- s.sc_acc +. (w *. h)
        else s.sc_acc <- s.sc_acc +. 0.0
      done
    done;
    s.sc_acc

  let wire_total t =
    let s = t.scr in
    s.sc_acc <- 0.0;
    for g = 0 to t.tb.t_n_nets - 1 do
      if t.ncount.(g) > 0 then
        s.sc_acc <- s.sc_acc +. (t.nx1.(g) -. t.nx0.(g)) +. (t.ny1.(g) -. t.ny0.(g))
    done;
    s.sc_acc

  let cost_parts t = (overlap_total t, t.bbox_area, wire_total t, t.sym_v)

  let cost t =
    (w_overlap *. overlap_total t)
    +. (w_area *. t.bbox_area)
    +. (w_wire *. wire_total t)
    +. (w_symmetry *. t.sym_v)

  (* -- move application -------------------------------------------------- *)

  (* overlap of cell [i] against everyone else — the only overlap terms a
     single-cell move can change *)
  let row_overlap t i =
    let s = t.scr in
    s.sc_acc <- 0.0;
    for j = 0 to t.tb.t_n - 1 do
      if j <> i then begin
        let w = Float.min t.bx1.(i) t.bx1.(j) -. Float.max t.bx0.(i) t.bx0.(j) in
        let h = Float.min t.by1.(i) t.by1.(j) -. Float.max t.by0.(i) t.by0.(j) in
        if w > 0.0 && h > 0.0 then s.sc_acc <- s.sc_acc +. (w *. h)
      end
    done;
    s.sc_acc

  let net_hpwl t g =
    if t.ncount.(g) = 0 then 0.0
    else (t.nx1.(g) -. t.nx0.(g)) +. (t.ny1.(g) -. t.ny0.(g))

  let item_wl t i =
    let nets = t.tb.t_item_nets.(i) in
    let acc = ref 0.0 in
    for k = 0 to Array.length nets - 1 do
      acc := !acc +. net_hpwl t nets.(k)
    done;
    !acc

  (* merge-walk the two sorted per-item net lists, applying [f] to each
     distinct net — the affected set of a swap, without allocation *)
  let union_nets t i j f =
    let a = t.tb.t_item_nets.(i) and b = t.tb.t_item_nets.(j) in
    let la = Array.length a and lb = Array.length b in
    let ka = ref 0 and kb = ref 0 in
    while !ka < la || !kb < lb do
      if !kb >= lb then begin f t a.(!ka); incr ka end
      else if !ka >= la then begin f t b.(!kb); incr kb end
      else begin
        let ga = a.(!ka) and gb = b.(!kb) in
        if ga < gb then begin f t ga; incr ka end
        else if gb < ga then begin f t gb; incr kb end
        else begin f t ga; incr ka; incr kb end
      end
    done

  let union_wl t i j =
    let acc = ref 0.0 in
    union_nets t i j (fun t g -> acc := !acc +. net_hpwl t g);
    !acc

  let weighted ~d_overlap ~d_area ~d_wire ~d_sym =
    (w_overlap *. d_overlap) +. (w_area *. d_area) +. (w_wire *. d_wire)
    +. (w_symmetry *. d_sym)

  (* tentatively re-site cell [i]; returns the weighted cost delta *)
  let set_site_raw t i ~variant ~ori ~x ~y =
    if t.pend <> P_none then invalid_arg "Placer.Eval: move already pending";
    let ov0 = row_overlap t i in
    let wl0 = item_wl t i in
    let a0 = t.bbox_area in
    let sv0 = t.sym_v in
    t.pend <- P_one;
    t.pi <- i;
    t.pi_var <- t.var_.(i);
    t.pi_ori <- t.ori.(i);
    t.pi_x <- t.sx.(i);
    t.pi_y <- t.sy.(i);
    t.var_.(i) <- variant;
    t.ori.(i) <- ori;
    t.sx.(i) <- x;
    t.sy.(i) <- y;
    refresh_cell t i;
    let nets = t.tb.t_item_nets.(i) in
    for k = 0 to Array.length nets - 1 do
      refresh_net t nets.(k)
    done;
    refresh_bbox t;
    if t.tb.t_sym_member.(i) then refresh_sym t;
    let ov1 = row_overlap t i in
    let wl1 = item_wl t i in
    weighted ~d_overlap:(ov1 -. ov0) ~d_area:(t.bbox_area -. a0)
      ~d_wire:(wl1 -. wl0) ~d_sym:(t.sym_v -. sv0)

  (* tentatively exchange the positions of [i] and [j] (variants and
     orientations stay put, as in the annealer's swap move) *)
  let swap_raw t i j =
    if t.pend <> P_none then invalid_arg "Placer.Eval: move already pending";
    if i = j then invalid_arg "Placer.Eval: swap of a cell with itself";
    (* the pair term appears in both rows; subtract one copy *)
    let wij =
      Float.min t.bx1.(i) t.bx1.(j) -. Float.max t.bx0.(i) t.bx0.(j)
    and hij =
      Float.min t.by1.(i) t.by1.(j) -. Float.max t.by0.(i) t.by0.(j)
    in
    let pair0 = if wij > 0.0 && hij > 0.0 then wij *. hij else 0.0 in
    let ov0 = row_overlap t i +. row_overlap t j -. pair0 in
    let wl0 = union_wl t i j in
    let a0 = t.bbox_area in
    let sv0 = t.sym_v in
    t.pend <- P_swap;
    t.pi <- i;
    t.pj <- j;
    t.pi_x <- t.sx.(i);
    t.pi_y <- t.sy.(i);
    t.pj_x <- t.sx.(j);
    t.pj_y <- t.sy.(j);
    t.sx.(i) <- t.pj_x;
    t.sy.(i) <- t.pj_y;
    t.sx.(j) <- t.pi_x;
    t.sy.(j) <- t.pi_y;
    refresh_cell t i;
    refresh_cell t j;
    union_nets t i j refresh_net;
    refresh_bbox t;
    if t.tb.t_sym_member.(i) || t.tb.t_sym_member.(j) then refresh_sym t;
    let wij =
      Float.min t.bx1.(i) t.bx1.(j) -. Float.max t.bx0.(i) t.bx0.(j)
    and hij =
      Float.min t.by1.(i) t.by1.(j) -. Float.max t.by0.(i) t.by0.(j)
    in
    let pair1 = if wij > 0.0 && hij > 0.0 then wij *. hij else 0.0 in
    let ov1 = row_overlap t i +. row_overlap t j -. pair1 in
    let wl1 = union_wl t i j in
    weighted ~d_overlap:(ov1 -. ov0) ~d_area:(t.bbox_area -. a0)
      ~d_wire:(wl1 -. wl0) ~d_sym:(t.sym_v -. sv0)

  let commit t = t.pend <- P_none

  (* undo the pending move: restore the sites and re-derive exactly the
     entities the move refreshed — derived state is a pure function of the
     sites, so this restores it bit-for-bit *)
  let revert t =
    match t.pend with
    | P_none -> ()
    | P_one ->
      let i = t.pi in
      t.var_.(i) <- t.pi_var;
      t.ori.(i) <- t.pi_ori;
      t.sx.(i) <- t.pi_x;
      t.sy.(i) <- t.pi_y;
      refresh_cell t i;
      let nets = t.tb.t_item_nets.(i) in
      for k = 0 to Array.length nets - 1 do
        refresh_net t nets.(k)
      done;
      refresh_bbox t;
      if t.tb.t_sym_member.(i) then refresh_sym t;
      t.pend <- P_none
    | P_swap ->
      let i = t.pi and j = t.pj in
      t.sx.(i) <- t.pi_x;
      t.sy.(i) <- t.pi_y;
      t.sx.(j) <- t.pj_x;
      t.sy.(j) <- t.pj_y;
      refresh_cell t i;
      refresh_cell t j;
      union_nets t i j refresh_net;
      refresh_bbox t;
      if t.tb.t_sym_member.(i) || t.tb.t_sym_member.(j) then refresh_sym t;
      t.pend <- P_none

  let remember t =
    Array.blit t.var_ 0 t.s_var 0 t.tb.t_n;
    Array.blit t.ori 0 t.s_ori 0 t.tb.t_n;
    Array.blit t.sx 0 t.s_x 0 t.tb.t_n;
    Array.blit t.sy 0 t.s_y 0 t.tb.t_n

  let rebuild t =
    for i = 0 to t.tb.t_n - 1 do
      refresh_cell t i
    done;
    for g = 0 to t.tb.t_n_nets - 1 do
      refresh_net t g
    done;
    refresh_bbox t;
    refresh_sym t

  let recall t =
    Array.blit t.s_var 0 t.var_ 0 t.tb.t_n;
    Array.blit t.s_ori 0 t.ori 0 t.tb.t_n;
    Array.blit t.s_x 0 t.sx 0 t.tb.t_n;
    Array.blit t.s_y 0 t.sy 0 t.tb.t_n;
    t.pend <- P_none;
    rebuild t

  let of_tables tb (placement : placement) =
    let n = tb.t_n in
    if Array.length placement <> n then
      invalid_arg "Placer.Eval: placement length mismatch";
    let t =
      { tb;
        var_ = Array.map (fun s -> s.variant) placement;
        ori = Array.map (fun s -> orient_index s.orient) placement;
        sx = Array.map (fun s -> s.x) placement;
        sy = Array.map (fun s -> s.y) placement;
        fx0 = Array.make n 0.0; fy0 = Array.make n 0.0;
        fx1 = Array.make n 0.0; fy1 = Array.make n 0.0;
        bx0 = Array.make n 0.0; by0 = Array.make n 0.0;
        bx1 = Array.make n 0.0; by1 = Array.make n 0.0;
        nx0 = Array.make tb.t_n_nets 0.0; ny0 = Array.make tb.t_n_nets 0.0;
        nx1 = Array.make tb.t_n_nets 0.0; ny1 = Array.make tb.t_n_nets 0.0;
        ncount = Array.make tb.t_n_nets 0;
        bbox_area = 0.0;
        sym_v = 0.0;
        scr = { sc_x0 = 0.0; sc_y0 = 0.0; sc_x1 = 0.0; sc_y1 = 0.0; sc_acc = 0.0 };
        icnt = 0;
        pend = P_none;
        pi = 0; pj = 0;
        pi_var = 0; pi_ori = 0;
        pi_x = 0.0; pi_y = 0.0; pj_x = 0.0; pj_y = 0.0;
        s_var = Array.make n 0; s_ori = Array.make n 0;
        s_x = Array.make n 0.0; s_y = Array.make n 0.0 }
    in
    rebuild t;
    remember t;
    t

  let create ?(rules = Rules.generic_07um) items sym placement =
    of_tables (make_tables ~rules items sym) placement

  let set_site t i (s : site) =
    set_site_raw t i ~variant:s.variant ~ori:(orient_index s.orient) ~x:s.x ~y:s.y

  let swap_positions t i j = swap_raw t i j

  let placement t =
    Array.init t.tb.t_n (fun i ->
        { variant = t.var_.(i);
          orient = Geom.all_orientations.(t.ori.(i));
          x = t.sx.(i);
          y = t.sy.(i) })
end

let cost_parts ?rules items sym placement =
  Eval.cost_parts (Eval.create ?rules items sym placement)

let cost ?rules items sym placement = Eval.cost (Eval.create ?rules items sym placement)

let wirelength items placement =
  let _, _, wl, _ = cost_parts items no_symmetry placement in
  wl

let overlap_free ?rules:_ items placement =
  (* true geometric overlap, without the routing halo the cost uses *)
  let n = Array.length items in
  let boxes = Array.init n (fun i -> footprint items.(i) placement.(i)) in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Geom.intersection_area boxes.(i) boxes.(j) > 1e-18 then ok := false
    done
  done;
  !ok

let grid = 0.35e-6 (* placement grid: one lambda *)

let snap v = Float.round (v /. grid) *. grid

let place ?(rules = Rules.generic_07um) ?schedule ?(seed = 17)
    ?(restarts = 1) ?jobs items sym =
  let n = Array.length items in
  let rng = Rng.create seed in
  (* initial spread: cells side by side with spacing *)
  let initial =
    let x = ref 0.0 in
    Array.init n (fun i ->
        let cell = items.(i).variants.(0) in
        let site = { variant = 0; orient = Geom.R0; x = !x; y = 0.0 } in
        x := !x +. cell.Cell.cw +. (4.0 *. rules.Rules.min_spacing Geom.Ndiff);
        site)
  in
  let span () =
    let boxes = Array.to_list (Array.mapi (fun i s -> footprint items.(i) s) initial) in
    match Geom.bbox boxes with
    | Some bb -> Float.max (Geom.width bb) (Geom.height bb)
    | None -> 1e-5
  in
  let full_span = span () in
  let tables = Eval.make_tables ~rules items sym in
  (* the same move mix and RNG draw sequence as the old copying neighbor
     (cell, then move choice, then the branch's own draws), but applied in
     place through the incremental evaluator: a move costs O(n) flops
     instead of an O(n^2) geometry rebuild, and allocates nothing *)
  let propose st rng ~temp01 =
    let i = Rng.int rng n in
    let range = full_span *. (0.05 +. (0.5 *. temp01)) in
    let translate () =
      let x = snap (st.Eval.sx.(i) +. Rng.uniform rng (-.range) range) in
      let y = snap (st.Eval.sy.(i) +. Rng.uniform rng (-.range) range) in
      Eval.set_site_raw st i ~variant:st.Eval.var_.(i) ~ori:st.Eval.ori.(i) ~x ~y
    in
    let choice = Rng.int rng 10 in
    if choice < 5 then translate ()
    else if choice < 7 then
      (* reorient *)
      Eval.set_site_raw st i ~variant:st.Eval.var_.(i)
        ~ori:(orient_index (Rng.choice rng Geom.all_orientations))
        ~x:st.Eval.sx.(i) ~y:st.Eval.sy.(i)
    else if choice < 8 && n > 1 then begin
      (* swap positions *)
      let j = (i + 1 + Rng.int rng (n - 1)) mod n in
      Eval.swap_raw st i j
    end
    else begin
      (* change variant (refold) *)
      let variants = Array.length items.(i).variants in
      if variants > 1 then
        Eval.set_site_raw st i ~variant:(Rng.int rng variants) ~ori:st.Eval.ori.(i)
          ~x:st.Eval.sx.(i) ~y:st.Eval.sy.(i)
      else translate ()
    end
  in
  let initial_cost = Eval.cost (Eval.of_tables tables initial) in
  let schedule =
    match schedule with
    | Some s -> s
    | None ->
      { Mixsyn_opt.Anneal.t_start = 0.5 *. Float.max initial_cost 1.0;
        t_end = 1e-6 *. Float.max initial_cost 1.0;
        cooling = 0.93;
        moves_per_stage = 60 * n }
  in
  let moves =
    { Mixsyn_opt.Anneal.create = (fun () -> Eval.of_tables tables initial);
      full_cost = Eval.cost;
      propose;
      commit = Eval.commit;
      revert = Eval.revert;
      remember = Eval.remember;
      recall = Eval.recall }
  in
  let outcome =
    Mixsyn_opt.Anneal.minimize_moves_multistart ~schedule ?jobs ~restarts ~rng moves
  in
  Eval.placement outcome.Mixsyn_opt.Anneal.best
