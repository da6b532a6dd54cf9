(* In-memory spans around the benchmark's own calls into the library.

   Recording is off during timed passes; the traced pass turns it on.
   Each span carries the layer (a lib/ module family) the call belongs
   to, so self times can be summed per layer.  Spans are written out once,
   at the end of the run. *)

type span = {
  id : int;
  name : string;
  layer : string;
  parent : int;  (** 0 for a root *)
  pass : int;
  job : string;  (** batch job id, or "" *)
  domain : int;
  t0 : float;
  t1 : float;
}

let enabled = Atomic.make false
let next_id = Atomic.make 1
let pass_id = Atomic.make 0
let lock = Mutex.create ()
let recorded : span list ref = ref []

(* the innermost open span on this domain *)
let current : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let record s =
  Mutex.lock lock;
  recorded := s :: !recorded;
  Mutex.unlock lock

(* [with_span ~layer name f]: [parent] overrides the domain's open span,
   which is how a batch job on a worker domain hangs under its pass. *)
let with_span ?parent ?(job = "") ~layer name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let outer = Domain.DLS.get current in
    let parent = Option.value parent ~default:outer in
    Domain.DLS.set current id;
    let t0 = Util.now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Util.now () in
        Domain.DLS.set current outer;
        record
          { id; name; layer; parent; pass = Atomic.get pass_id; job;
            domain = (Domain.self () :> int); t0; t1 })
      f
  end

let current_span () = Domain.DLS.get current

let spans () =
  Mutex.lock lock;
  let s = List.rev !recorded in
  Mutex.unlock lock;
  s

(* Self time of every span: its duration minus the union of its
   children's intervals (children of one span may overlap when they ran
   on different domains). *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  List.map
    (fun s ->
      let kids =
        List.sort (fun a b -> Float.compare a.t0 b.t0) (Hashtbl.find_all children s.id)
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) k ->
            let lo = Float.max k.t0 reach and hi = k.t1 in
            if hi > lo then (acc +. (hi -. lo), hi) else (acc, Float.max reach hi))
          (0.0, s.t0) kids
      in
      (s, s.t1 -. s.t0 -. covered))
    spans

let to_json (s : span) =
  let module J = Mixsyn_util.Json in
  J.Obj
    [ ("id", J.Num (float_of_int s.id));
      ("name", J.Str s.name);
      ("layer", J.Str s.layer);
      ("parent", J.Num (float_of_int s.parent));
      ("pass", J.Num (float_of_int s.pass));
      ("job", J.Str s.job);
      ("domain", J.Num (float_of_int s.domain));
      ("start_s", J.Num s.t0);
      ("end_s", J.Num s.t1) ]
