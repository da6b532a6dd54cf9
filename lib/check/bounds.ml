(* Certified performance bounds by abstract interpretation.

   The concrete evaluator ([Mixsyn_synth.Equations]) and this module run
   the same expression tree — the equations are written once against the
   numeric DOMAIN and instantiated over floats there and over
   [Mixsyn_util.Interval] here.  Evaluating over the template's parameter
   box therefore yields guaranteed enclosures of every concrete metric the
   optimizer can ever observe inside the box: if the certified interval for
   gain_db tops out at 128 dB, no sizing point reaches 129.  That is what
   lets the flow reject specifications before any Newton or annealing work,
   lets batches skip provably-hopeless jobs, and lets the box contractor
   cut provably-infeasible regions out of the search space. *)

module I = Mixsyn_util.Interval
module Template = Mixsyn_circuit.Template
module Spec = Mixsyn_synth.Spec
module Equations = Mixsyn_synth.Equations

(* ---- boxes ------------------------------------------------------------ *)

let box_of_template (template : Template.t) =
  Array.map (fun (p : Template.param) -> I.make p.Template.lo p.Template.hi)
    template.Template.params

(* pin context bindings the way Sizing does: only names the template
   actually has become point intervals; unknown names are ignored *)
let pin (template : Template.t) context =
  let pinnable =
    List.filter
      (fun (name, _) ->
        Array.exists (fun (p : Template.param) -> p.Template.p_name = name)
          template.Template.params)
      context
  in
  Template.with_fixed template pinnable

(* ---- certified metric enclosures -------------------------------------- *)

let log10_over_20 = Float.log 10.0 /. 20.0

(* dominant pole of the single-pole model: ugf / 10^(gain_db/20) *)
let with_derived metrics =
  match (List.assoc_opt "gain_db" metrics, List.assoc_opt "ugf_hz" metrics) with
  | Some gain_db, Some ugf ->
    let linear_gain = I.exp_ (I.mul gain_db (I.point log10_over_20)) in
    metrics @ [ ("dominant_pole_hz", I.ediv ugf linear_gain) ]
  | _ -> metrics

let certify_box ?(tech = Mixsyn_circuit.Tech.generic_07um) t_name box =
  Option.map with_derived (Equations.Interval_eval.equations tech t_name box)

let certify ?tech ?(context = []) template =
  let pinned = pin template context in
  Option.value (certify_box ?tech template.Template.t_name (box_of_template pinned))
    ~default:[]

let metric_ranges ?tech ?context templates =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (t : Template.t) ->
      Hashtbl.replace tbl t.Template.t_name (certify ?tech ?context t))
    templates;
  fun (t : Template.t) name ->
    match Hashtbl.find_opt tbl t.Template.t_name with
    | Some metrics -> List.assoc_opt name metrics
    | None -> List.assoc_opt name (certify ?tech ?context t)

(* ---- spec compatibility ------------------------------------------------ *)

(* can ANY point of the certified enclosure satisfy the bound?  An empty
   enclosure satisfies nothing: evaluation is nowhere defined on the box. *)
let compatible interval (bound : Spec.bound) =
  (not (I.is_empty interval))
  &&
  match bound with
  | Spec.At_least v -> I.hi interval >= v
  | Spec.At_most v -> I.lo interval <= v
  | Spec.Between (lo, hi) -> I.intersects interval (I.make lo hi)

let bound_to_string (bound : Spec.bound) =
  match bound with
  | Spec.At_least v -> Printf.sprintf "at least %g" v
  | Spec.At_most v -> Printf.sprintf "at most %g" v
  | Spec.Between (lo, hi) -> Printf.sprintf "between %g and %g" lo hi

let infeasible_specs ?tech ?context specs template =
  let certified = certify ?tech ?context template in
  List.filter_map
    (fun (s : Spec.t) ->
      match List.assoc_opt s.Spec.s_name certified with
      | None -> None (* metric not modelled: cannot prove anything *)
      | Some interval ->
        if compatible interval s.Spec.bound then None else Some (s, interval))
    specs

let feasible ?tech ?context specs template =
  infeasible_specs ?tech ?context specs template = []

(* ---- annotation drift -------------------------------------------------- *)

(* the hand table claims a value achievable that the certified enclosure
   excludes by more than this relative slack (the slack absorbs outward
   rounding and asymptotic endpoints like a 90-degree phase margin) *)
let drift_tolerance = 1e-3

let annotation_drift ?tech (template : Template.t) =
  let certified = certify ?tech template in
  List.filter_map
    (fun (name, hand) ->
      match List.assoc_opt name certified with
      | None -> None
      | Some cert ->
        let slack x = drift_tolerance *. Float.abs x in
        let hi_excess = I.hi hand -. (I.hi cert +. slack (I.hi cert)) in
        let lo_excess = I.lo cert -. slack (I.lo cert) -. I.lo hand in
        if I.is_empty cert || hi_excess > 0.0 || lo_excess > 0.0 then
          Some
            (Diagnostic.warning ~rule:"feas.annotation-drift"
               ~loc:(template.Template.t_name ^ "/" ^ name)
               (Format.asprintf
                  "hand-annotated range %a exceeds certified bound %a (%s end optimistic)"
                  I.pp hand I.pp cert
                  (if hi_excess > 0.0 then "upper" else "lower")))
        else None)
    template.Template.feasibility

(* ---- branch-and-prune box contraction ---------------------------------- *)

type contraction = {
  c_template : Template.t;
  explored : int;       (* boxes whose enclosure was evaluated *)
  pruned : int;         (* boxes proven spec-infeasible and dropped *)
  c_infeasible : bool;  (* every box pruned: the whole template is hopeless *)
}

let box_violates ?tech t_name specs box =
  match certify_box ?tech t_name box with
  | None -> false
  | Some metrics ->
    List.exists
      (fun (s : Spec.t) ->
        match List.assoc_opt s.Spec.s_name metrics with
        | None -> false
        | Some interval -> not (compatible interval s.Spec.bound))
      specs

(* relative remaining width of dimension [i], measured against the original
   box (log-widths for log-scaled parameters) — the bisection heuristic *)
let rel_width (params : Template.param array) (box0 : I.t array) i (iv : I.t) =
  let p = params.(i) in
  if I.is_point iv then 0.0
  else if p.Template.log_scale && I.lo iv > 0.0 && I.lo box0.(i) > 0.0 then begin
    let orig = Float.log (I.hi box0.(i) /. I.lo box0.(i)) in
    if orig <= 0.0 then 0.0 else Float.log (I.hi iv /. I.lo iv) /. orig
  end
  else begin
    let orig = I.width box0.(i) in
    if orig <= 0.0 then 0.0 else I.width iv /. orig
  end

(* the bisection's split budget: 63 splits leave at most 64 leaf boxes *)
let split_budget = 63

let contract ?tech ?(context = []) specs (template : Template.t) =
  let pinned = pin template context in
  let params = pinned.Template.params in
  let n = Array.length params in
  let box0 = box_of_template pinned in
  let queue = Queue.create () in
  Queue.add box0 queue;
  let explored = ref 0 and pruned = ref 0 and splits = ref 0 in
  let survivors = ref [] in
  while not (Queue.is_empty queue) do
    let box = Queue.pop queue in
    incr explored;
    if box_violates ?tech template.Template.t_name specs box then incr pruned
    else begin
      let dim = ref (-1) and best = ref 0.0 in
      for i = 0 to n - 1 do
        let w = rel_width params box0 i box.(i) in
        if w > !best then begin
          best := w;
          dim := i
        end
      done;
      if !dim < 0 || !splits >= split_budget then survivors := box :: !survivors
      else begin
        incr splits;
        let a, b =
          if params.(!dim).Template.log_scale then I.split_log box.(!dim)
          else I.split box.(!dim)
        in
        let left = Array.copy box and right = Array.copy box in
        left.(!dim) <- a;
        right.(!dim) <- b;
        Queue.add left queue;
        Queue.add right queue
      end
    end
  done;
  match !survivors with
  | [] ->
    (* the entire box is provably infeasible; hand the template back
       unchanged — the pre-flight gate is the place that reports this *)
    { c_template = template; explored = !explored; pruned = !pruned; c_infeasible = true }
  | first :: rest ->
    let hull = Array.copy first in
    List.iter
      (fun box -> Array.iteri (fun i iv -> hull.(i) <- I.hull hull.(i) iv) box)
      rest;
    let changed = ref false in
    Array.iteri
      (fun i iv ->
        if I.lo iv > I.lo box0.(i) || I.hi iv < I.hi box0.(i) then changed := true)
      hull;
    if not !changed then
      { c_template = template; explored = !explored; pruned = !pruned; c_infeasible = false }
    else begin
      let params' =
        Array.mapi
          (fun i (p : Template.param) ->
            { p with Template.lo = I.lo hull.(i); hi = I.hi hull.(i) })
          params
      in
      { c_template = { pinned with Template.params = params' };
        explored = !explored;
        pruned = !pruned;
        c_infeasible = false }
    end

(* ---- symbolic transfer-function bounds --------------------------------- *)

let transfer_bounds nl ~out ~ranges =
  let r = Mixsyn_symbolic.Analyze.transfer nl ~out in
  [ ("dc_gain", Mixsyn_symbolic.Analyze.bound_dc_gain ranges r);
    ("gbw_hz", Mixsyn_symbolic.Analyze.bound_gbw ranges r);
    ("dominant_pole_hz", Mixsyn_symbolic.Analyze.bound_dominant_pole ranges r) ]
