(* What every workload hands back to the run loop in bench.ml. *)

module Telemetry = Mixsyn_util.Telemetry

(* The correctness verdict of one timed pass.  [attempted] counts the
   workload's operations (syntheses, pruning rows, batch jobs); [failed]
   counts the ones that failed or timed out, or whose output broke one of
   the [broken] checks. *)
type verdict = {
  attempted : int;
  failed : int;
  broken : string list;
  digest : string;
}

type metric = {
  name : string;
  value : float;
  unit_ : string;
  note : string;  (** base of a rate, percentile of a tail, ... *)
}

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

(* Everything measured around one pass, for the per-layer report. *)
type traced = {
  wall : float;
  cpu : float;
  counters : (string * int) list;
  tspans : Telemetry.span list;  (** the program's own span forest *)
  bench_spans : Trace.span list;  (** the benchmark's spans of this pass *)
  minor_words : float;
  major_collections : int;
}

let counter t name = float_of_int (Option.value (List.assoc_opt name t.counters) ~default:0)

(* Seconds and calls of every node named [name] inside the subtree of the
   root named [root]; other roots are never added in, so work a pool
   task re-reports at top level is not counted twice. *)
let span_under t ~root name =
  let rec walk (s : Telemetry.span) =
    let own = if s.Telemetry.span_name = name then s.Telemetry.seconds else 0.0 in
    List.fold_left (fun acc c -> acc +. walk c) own s.Telemetry.children
  in
  List.fold_left
    (fun acc (r : Telemetry.span) -> if r.Telemetry.span_name = root then acc +. walk r else acc)
    0.0 t.tspans

(* seconds of every node under [root] whose name starts with [prefix] *)
let spans_prefixed t ~root prefix =
  let n = String.length prefix in
  let rec walk (s : Telemetry.span) =
    let name = s.Telemetry.span_name in
    if String.length name >= n && String.sub name 0 n = prefix then s.Telemetry.seconds
    else List.fold_left (fun acc c -> acc +. walk c) 0.0 s.Telemetry.children
  in
  List.fold_left
    (fun acc (r : Telemetry.span) ->
      if r.Telemetry.span_name = root then
        acc +. List.fold_left (fun a c -> a +. walk c) 0.0 r.Telemetry.children
      else acc)
    0.0 t.tspans

(* Durations of the benchmark's spans with this name, and their sum. *)
let bench_durations t name =
  List.filter_map
    (fun (s : Trace.span) -> if s.Trace.name = name then Some (s.Trace.t1 -. s.Trace.t0) else None)
    t.bench_spans

let bench_seconds t name = List.fold_left ( +. ) 0.0 (bench_durations t name)

(* Self time per layer from the benchmark's spans (the pass span itself
   excluded), in the order the layers first appear. *)
let layer_self_times t =
  let table = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun ((s : Trace.span), self) ->
      if s.Trace.parent <> 0 then begin
        if not (Hashtbl.mem table s.Trace.layer) then order := s.Trace.layer :: !order;
        Hashtbl.replace table s.Trace.layer
          (self +. Option.value (Hashtbl.find_opt table s.Trace.layer) ~default:0.0)
      end)
    (Trace.self_times t.bench_spans);
  List.rev_map (fun l -> (l, Hashtbl.find table l)) !order

(* The probe: per-call costs of public functions on a sample of inputs. *)
type probe = {
  mutable samples : (string * float) list;  (** (call, seconds), newest first *)
  mutable minor : (string * float) list;  (** (call, minor words) *)
}

let probe () = { samples = []; minor = [] }

let probe_time p name f =
  let w0 = Gc.minor_words () in
  let t0 = Util.now () in
  let r = f () in
  p.samples <- (name, Util.now () -. t0) :: p.samples;
  p.minor <- (name, Gc.minor_words () -. w0) :: p.minor;
  r

let named name samples = List.filter_map (fun (n, v) -> if n = name then Some v else None) samples
let probe_values p name = named name p.samples
let mean_or_zero = function [] -> 0.0 | xs -> Util.mean xs
let probe_mean p name = mean_or_zero (probe_values p name)
let probe_minor_mean p name = mean_or_zero (named name p.minor)

(* A workload: how it builds its inputs, runs one pass, checks it, and
   what it reports beyond the metrics every workload shares. *)
module type S = sig
  type inputs
  type outcome

  val setup : seed:int -> jobs:int -> inputs
  (** Generate the inputs from the seed and warm the program up. *)

  val pass : inputs -> outcome
  (** One timed pass.  Calls into the library go through {!Trace.with_span}. *)

  val verdict : inputs -> outcome -> verdict

  val report : inputs -> walls:float list -> outcome list -> metric list
  (** The workload's own end-to-end metrics. *)

  val layers : inputs -> outcome -> traced -> metric list * (string * float) list
  (** Per-layer metrics this workload measures itself, and each layer's
      self time in seconds of the traced pass's wall time.  The run loop
      reports the wall time these do not cover as unattributed. *)
end

(* [adjust base moves] adds signed seconds to layers: a composite call's
   span is charged to one layer, and the probe-scaled share of the layers
   it calls is moved out of it. *)
let adjust base moves =
  List.fold_left
    (fun acc (layer, dt) ->
      if List.mem_assoc layer acc then
        List.map (fun (l, v) -> if l = layer then (l, v +. dt) else (l, v)) acc
      else acc @ [ (layer, dt) ])
    base moves
