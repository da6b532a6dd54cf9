module Tech = Mixsyn_circuit.Tech

type box = {
  vdd_rel : float * float;
  temp_delta : float * float;
  vth_shift : float * float;
  kp_rel : float * float;
}

let default_box =
  { vdd_rel = (-0.1, 0.1);
    temp_delta = (-60.0, 125.0);
    vth_shift = (-0.05, 0.05);
    kp_rel = (-0.1, 0.1) }

let corner_of_point name = function
  | [| d_vdd; d_temp; d_vth; d_kp |] -> { Tech.corner_name = name; d_vdd; d_temp; d_vth; d_kp }
  | _ -> invalid_arg "corner_of_point: expected 4 coordinates"

let worst_corner ?(box = default_box) ?(refine = true) ?jobs ~violation () =
  (* the 2^4 vertices plus the centre *)
  let lo = [| fst box.vdd_rel; fst box.temp_delta; fst box.vth_shift; fst box.kp_rel |] in
  let hi = [| snd box.vdd_rel; snd box.temp_delta; snd box.vth_shift; snd box.kp_rel |] in
  let vertices =
    let pick mask i = if mask land (1 lsl i) <> 0 then hi.(i) else lo.(i) in
    Array.append
      (Array.init 16 (fun mask -> Array.init 4 (pick mask)))
      [| Array.init 4 (fun i -> 0.5 *. (lo.(i) +. hi.(i))) |]
  in
  (* the vertex sweep is embarrassingly parallel; the reduction below runs
     in vertex order with a strict [>], so the chosen vertex is the same at
     any job count *)
  let values =
    Mixsyn_util.Pool.parallel_map ?jobs
      (fun point -> violation (corner_of_point "search" point))
      vertices
  in
  let evals = ref (Array.length vertices) in
  let best_point = ref (Array.make 4 0.0) and best_violation = ref neg_infinity in
  Array.iteri
    (fun i v ->
      if v > !best_violation then begin
        best_violation := v;
        best_point := vertices.(i)
      end)
    values;
  let point, value =
    if refine && !best_violation > 0.0 then begin
      let negated x =
        incr evals;
        -.violation (corner_of_point "search" x)
      in
      let options = { Nelder_mead.max_evals = 60; tolerance = 1e-9 } in
      let x, fx, _ = Nelder_mead.minimize ~options ~lower:lo ~upper:hi ~f:negated !best_point in
      if -.fx > !best_violation then (x, -.fx) else (!best_point, !best_violation)
    end
    else (!best_point, !best_violation)
  in
  (corner_of_point "worst-case" point, value, !evals)
