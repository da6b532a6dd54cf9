(* Flow-wide observability: named monotonic counters and nested timed spans
   in one global registry.

   Domain-safe: counters are sharded per domain (each domain owns a shard
   with its own mutex, registered in a global list on first use), so hot
   paths running on many domains at once — 48 batch jobs all counting DC
   iterations — only ever lock their own shard; readers merge every shard
   on demand.  Span mutation still happens under one mutex (span trees are
   read-heavy and cold), and the span *stack* is domain-local; a pool
   helper adopts the caller's stack for the duration of its task
   ([with_context]), so its spans nest under the caller's open span
   instead of forming extra roots.  The clock is
   [Unix.gettimeofday], so span durations are wall seconds — the quantity
   that parallel speedups actually change. *)

type span = {
  span_name : string;
  calls : int;
  seconds : float;
  children : span list;
}

(* internal mutable span node; [n_children] is kept in reverse creation
   order and reversed on snapshot *)
type node = {
  n_name : string;
  mutable n_calls : int;
  mutable n_seconds : float;
  mutable n_children : node list;
}

let make_node name = { n_name = name; n_calls = 0; n_seconds = 0.0; n_children = [] }

let root = make_node "<root>"

(* per-domain nesting context: a fresh domain starts at the root *)
let stack : node list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let registry_lock = Mutex.create ()

let locked f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

(* one counter shard per domain; [add] touches only the caller's shard.
   The shard list only ever grows (a dead domain leaves an empty, merged
   shard behind) — bounded in practice because pool workers are spawned
   once and reused. *)
type shard = { s_lock : Mutex.t; s_tbl : (string, int ref) Hashtbl.t }

let shards_lock = Mutex.create ()
let shards : shard list ref = ref []

let shard_key : shard Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let s = { s_lock = Mutex.create (); s_tbl = Hashtbl.create 32 } in
      Mutex.lock shards_lock;
      shards := s :: !shards;
      Mutex.unlock shards_lock;
      s)

let shard_list () =
  Mutex.lock shards_lock;
  let l = !shards in
  Mutex.unlock shards_lock;
  l

let reset () =
  List.iter
    (fun s ->
      Mutex.lock s.s_lock;
      Hashtbl.reset s.s_tbl;
      Mutex.unlock s.s_lock)
    (shard_list ());
  (locked @@ fun () ->
   root.n_calls <- 0;
   root.n_seconds <- 0.0;
   root.n_children <- []);
  Domain.DLS.set stack []

let add name k =
  let s = Domain.DLS.get shard_key in
  Mutex.lock s.s_lock;
  (match Hashtbl.find_opt s.s_tbl name with
   | Some r -> r := !r + k
   | None -> Hashtbl.replace s.s_tbl name (ref k));
  Mutex.unlock s.s_lock

let count name = add name 1

let counter name =
  List.fold_left
    (fun acc s ->
      Mutex.lock s.s_lock;
      let v = match Hashtbl.find_opt s.s_tbl name with Some r -> !r | None -> 0 in
      Mutex.unlock s.s_lock;
      acc + v)
    0 (shard_list ())

let counters_alist () =
  let merged : (string, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Mutex.lock s.s_lock;
      Hashtbl.iter
        (fun name r ->
          let prior = Option.value ~default:0 (Hashtbl.find_opt merged name) in
          Hashtbl.replace merged name (prior + !r))
        s.s_tbl;
      Mutex.unlock s.s_lock)
    (shard_list ());
  let pairs = Hashtbl.fold (fun name v acc -> (name, v) :: acc) merged [] in
  List.sort (fun (a, _) (b, _) -> String.compare a b) pairs

let child_of parent name =
  match List.find_opt (fun n -> n.n_name = name) parent.n_children with
  | Some n -> n
  | None ->
    let n = make_node name in
    parent.n_children <- n :: parent.n_children;
    n

let with_span name f =
  let parent = match Domain.DLS.get stack with [] -> root | n :: _ -> n in
  let node = locked (fun () -> child_of parent name) in
  Domain.DLS.set stack (node :: Domain.DLS.get stack);
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let dt = Unix.gettimeofday () -. t0 in
      locked (fun () ->
          node.n_calls <- node.n_calls + 1;
          node.n_seconds <- node.n_seconds +. dt);
      match Domain.DLS.get stack with
      | n :: rest when n == node -> Domain.DLS.set stack rest
      | _ -> ())
    f

type context = node list

let context () = Domain.DLS.get stack

let with_context ctx f =
  let prev = Domain.DLS.get stack in
  Domain.DLS.set stack ctx;
  Fun.protect ~finally:(fun () -> Domain.DLS.set stack prev) f

let rec freeze n =
  { span_name = n.n_name;
    calls = n.n_calls;
    seconds = n.n_seconds;
    children = List.rev_map freeze n.n_children }

let spans () = locked (fun () -> (freeze root).children)

let span_seconds name =
  let rec sum acc (s : span) =
    let acc = if s.span_name = name then acc +. s.seconds else acc in
    List.fold_left sum acc s.children
  in
  List.fold_left sum 0.0 (spans ())

let span_calls name =
  let rec sum acc (s : span) =
    let acc = if s.span_name = name then acc + s.calls else acc in
    List.fold_left sum acc s.children
  in
  List.fold_left sum 0 (spans ())

let top_counters ?(limit = 8) () =
  let by_weight (na, va) (nb, vb) =
    if va <> vb then compare vb va else String.compare na nb
  in
  let rec take k = function
    | x :: rest when k > 0 -> x :: take (k - 1) rest
    | _ -> []
  in
  take limit (List.sort by_weight (counters_alist ()))

(* derived figures the raw counter dump buries: the stage-cache hit rate
   and each domain's busy seconds, appended when those counters are live *)
let derived_segments () =
  let hits = counter "flow.stage_cache.hits"
  and misses = counter "flow.stage_cache.misses" in
  let cache =
    if hits + misses = 0 then []
    else
      [ Printf.sprintf "stage_cache=%.0f%%hit"
          (100.0 *. float_of_int hits /. float_of_int (hits + misses)) ]
  in
  let busy =
    List.filter_map
      (fun (name, v) ->
        match String.split_on_char '.' name with
        | [ "pool"; "domain"; slot; "busy_us" ] when v > 0 ->
          Some (Printf.sprintf "domain%s=%.2fs" slot (float_of_int v *. 1e-6))
        | _ -> None)
      (counters_alist ())
  in
  cache @ busy

let pp_rollup ?limit ppf () =
  match top_counters ?limit () with
  | [] -> Format.fprintf ppf "(no counters)"
  | top ->
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
      (fun ppf (name, v) -> Format.fprintf ppf "%s=%d" name v)
      ppf top;
    List.iter (fun s -> Format.fprintf ppf ", %s" s) (derived_segments ())

let pp_report ppf () =
  let cs = counters_alist () in
  let ss = spans () in
  if cs = [] && ss = [] then Format.fprintf ppf "telemetry: (empty)"
  else begin
    Format.fprintf ppf "telemetry report@\n";
    if cs <> [] then begin
      Format.fprintf ppf "  counters:@\n";
      List.iter (fun (name, v) -> Format.fprintf ppf "    %-36s %12d@\n" name v) cs
    end;
    if ss <> [] then begin
      Format.fprintf ppf "  spans:@\n";
      let rec walk depth s =
        Format.fprintf ppf "    %s%-*s %6d call%s %9.3fs@\n"
          (String.make (2 * depth) ' ')
          (max 1 (34 - (2 * depth)))
          s.span_name s.calls
          (if s.calls = 1 then " " else "s")
          s.seconds;
        List.iter (walk (depth + 1)) s.children
      in
      List.iter (walk 0) ss
    end
  end

let report () = Format.asprintf "%a" pp_report ()

(* JSON export goes through the canonical Json printer so floats render
   with the same shortest-round-trip encoding as the journal, the batch
   summary and the serve responses *)
let to_json_value () =
  let counters =
    Json.Obj
      (List.map (fun (name, v) -> (name, Json.Num (float_of_int v))) (counters_alist ()))
  in
  let rec span_json s =
    Json.Obj
      [ ("name", Json.Str s.span_name);
        ("calls", Json.Num (float_of_int s.calls));
        ("seconds", Json.Num s.seconds);
        ("children", Json.Arr (List.map span_json s.children)) ]
  in
  Json.Obj [ ("counters", counters); ("spans", Json.Arr (List.map span_json (spans ()))) ]

let to_json () = Json.to_string (to_json_value ())
