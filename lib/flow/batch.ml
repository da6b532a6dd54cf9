(* Batch synthesis: a manifest of flow jobs in, an append-only journal of
   per-job records out.

   The deterministic core is the journal writer: results may finish in any
   order under any job count, but they are buffered and flushed strictly in
   manifest order, so the file on disk is always a clean prefix of the
   final journal.  Interruption (SIGKILL included) therefore costs at most
   one truncated trailing line, which resume cuts before appending — and a
   resumed journal finishes byte-identical to an uninterrupted one. *)

module Json = Mixsyn_util.Json
module Spec = Mixsyn_synth.Spec
module Cancel = Mixsyn_util.Cancel
module I = Mixsyn_util.Interval

type fault = Raise | Hang

type job = {
  job_id : string;
  seed : int;
  specs : Spec.t list;
  objectives : Spec.objective list;
  context : (string * float) list;
  topology : string option;
  max_redesigns : int option;
  timeout_s : float option;
  fault : fault option;
}

type failure = {
  error : string;
  diagnostics : string list;
}

type infeasibility = {
  inf_spec : string;
  inf_bound : string;
  inf_lo : float;
  inf_hi : float;
}

type status =
  | Completed of Json.t
  | Failed of failure
  | Timed_out
  | Infeasible of infeasibility
  | Cancelled

type record = {
  rec_id : string;
  rec_seed : int;
  attempts : int;
  status : status;
}

type summary = {
  total : int;
  completed : int;
  failed : int;
  timed_out : int;
  cancelled : int;
  prefiltered : int;
  skipped : int;
  run_jobs : int;
  elapsed_s : float;
  cache_hits : int;
  cache_misses : int;
  domain_busy_s : (int * float) list;
  records : record list;
}

(* ---- manifest parsing ------------------------------------------------- *)

let ( let* ) = Result.bind

let field_float name json =
  match Json.member name json with
  | None -> Ok None
  | Some v ->
    (match Json.to_float v with
     | Some x -> Ok (Some x)
     | None -> Error (Printf.sprintf "field %S must be a number" name))

let field_int name json =
  match Json.member name json with
  | None -> Ok None
  | Some v ->
    (match Json.to_int v with
     | Some x -> Ok (Some x)
     | None -> Error (Printf.sprintf "field %S must be an integer" name))

let spec_of_json json =
  let* name =
    match Option.bind (Json.member "name" json) Json.to_str with
    | Some n -> Ok n
    | None -> Error "spec needs a \"name\" string"
  in
  let* weight = field_float "weight" json in
  let weight = Option.value weight ~default:1.0 in
  let* bound =
    match
      ( Option.bind (Json.member "at_least" json) Json.to_float,
        Option.bind (Json.member "at_most" json) Json.to_float,
        Option.bind (Json.member "between" json) Json.to_list )
    with
    | Some v, None, None -> Ok (Spec.At_least v)
    | None, Some v, None -> Ok (Spec.At_most v)
    | None, None, Some [ lo; hi ] ->
      (match (Json.to_float lo, Json.to_float hi) with
       | Some lo, Some hi -> Ok (Spec.Between (lo, hi))
       | _ -> Error (Printf.sprintf "spec %s: \"between\" needs two numbers" name))
    | None, None, None ->
      Error (Printf.sprintf "spec %s needs at_least, at_most or between" name)
    | _ -> Error (Printf.sprintf "spec %s has more than one bound" name)
  in
  Ok (Spec.spec ~weight name bound)

let objective_of_json json =
  let* weight = field_float "weight" json in
  let weight = Option.value weight ~default:1.0 in
  match
    ( Option.bind (Json.member "minimize" json) Json.to_str,
      Option.bind (Json.member "maximize" json) Json.to_str )
  with
  | Some n, None -> Ok (Spec.minimize ~weight n)
  | None, Some n -> Ok (Spec.maximize ~weight n)
  | _ -> Error "objective needs exactly one of \"minimize\" / \"maximize\""

let rec collect f = function
  | [] -> Ok []
  | x :: rest ->
    let* v = f x in
    let* vs = collect f rest in
    Ok (v :: vs)

let job_of_json json =
  let* job_id =
    match Option.bind (Json.member "id" json) Json.to_str with
    | Some id when id <> "" -> Ok id
    | Some _ -> Error "job \"id\" must be non-empty"
    | None -> Error "job needs an \"id\" string"
  in
  let ctx msg = Printf.sprintf "job %s: %s" job_id msg in
  let* seed = Result.map_error ctx (field_int "seed" json) in
  let seed = Option.value seed ~default:13 in
  let* specs =
    match Json.member "specs" json with
    | None -> Ok []
    | Some v ->
      (match Json.to_list v with
       | Some items -> Result.map_error ctx (collect spec_of_json items)
       | None -> Error (ctx "\"specs\" must be an array"))
  in
  let* objectives =
    match Json.member "objectives" json with
    | None -> Ok [ Spec.minimize "power_w" ]
    | Some v ->
      (match Json.to_list v with
       | Some items -> Result.map_error ctx (collect objective_of_json items)
       | None -> Error (ctx "\"objectives\" must be an array"))
  in
  let* context =
    match Json.member "context" json with
    | None -> Ok []
    | Some v ->
      (match Json.to_obj v with
       | Some fields ->
         Result.map_error ctx
           (collect
              (fun (name, v) ->
                match Json.to_float v with
                | Some x -> Ok (name, x)
                | None -> Error (Printf.sprintf "context entry %S must be a number" name))
              fields)
       | None -> Error (ctx "\"context\" must be an object"))
  in
  let topology = Option.bind (Json.member "topology" json) Json.to_str in
  let* max_redesigns = Result.map_error ctx (field_int "max_redesigns" json) in
  let* timeout_s = Result.map_error ctx (field_float "timeout_s" json) in
  let* fault =
    match Option.bind (Json.member "fault" json) Json.to_str with
    | None -> Ok None
    | Some "raise" -> Ok (Some Raise)
    | Some "hang" -> Ok (Some Hang)
    | Some other -> Error (ctx (Printf.sprintf "unknown fault %S (raise or hang)" other))
  in
  Ok { job_id; seed; specs; objectives; context; topology; max_redesigns; timeout_s; fault }

let manifest_of_string text =
  let lines = String.split_on_char '\n' text in
  let* jobs =
    let rec walk lineno acc = function
      | [] -> Ok (List.rev acc)
      | line :: rest ->
        let trimmed = String.trim line in
        if trimmed = "" || trimmed.[0] = '#' then walk (lineno + 1) acc rest
        else begin
          let tagged msg = Printf.sprintf "manifest line %d: %s" lineno msg in
          match
            let* json = Json.parse trimmed in
            job_of_json json
          with
          | Ok job -> walk (lineno + 1) (job :: acc) rest
          | Error msg -> Error (tagged msg)
        end
    in
    walk 1 [] lines
  in
  let seen = Hashtbl.create 16 in
  let* () =
    List.fold_left
      (fun acc j ->
        let* () = acc in
        if Hashtbl.mem seen j.job_id then
          Error (Printf.sprintf "manifest: duplicate job id %S" j.job_id)
        else begin
          Hashtbl.add seen j.job_id ();
          Ok ()
        end)
      (Ok ()) jobs
  in
  if jobs = [] then Error "manifest: no jobs" else Ok jobs

let load_manifest path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> manifest_of_string text
  | exception Sys_error msg -> Error msg

(* ---- journal records -------------------------------------------------- *)

let record_to_json r =
  let base =
    [ ("id", Json.Str r.rec_id);
      ("seed", Json.Num (float_of_int r.rec_seed));
      ("attempts", Json.Num (float_of_int r.attempts)) ]
  in
  match r.status with
  | Completed result -> Json.Obj (base @ [ ("status", Json.Str "completed"); ("result", result) ])
  | Failed f ->
    Json.Obj
      (base
      @ [ ("status", Json.Str "failed");
          ("error", Json.Str f.error);
          ("diagnostics", Json.Arr (List.map (fun d -> Json.Str d) f.diagnostics)) ])
  | Timed_out -> Json.Obj (base @ [ ("status", Json.Str "timed_out") ])
  | Cancelled -> Json.Obj (base @ [ ("status", Json.Str "cancelled") ])
  | Infeasible inf ->
    Json.Obj
      (base
      @ [ ("status", Json.Str "infeasible");
          ("spec", Json.Str inf.inf_spec);
          ("bound", Json.Str inf.inf_bound);
          ("certified_lo", Json.Num inf.inf_lo);
          ("certified_hi", Json.Num inf.inf_hi) ])

let record_of_json json =
  let* rec_id =
    match Option.bind (Json.member "id" json) Json.to_str with
    | Some id -> Ok id
    | None -> Error "record needs an \"id\""
  in
  let* rec_seed =
    match Option.bind (Json.member "seed" json) Json.to_int with
    | Some s -> Ok s
    | None -> Error "record needs a \"seed\""
  in
  let* attempts =
    match Option.bind (Json.member "attempts" json) Json.to_int with
    | Some a -> Ok a
    | None -> Error "record needs \"attempts\""
  in
  let* status =
    match Option.bind (Json.member "status" json) Json.to_str with
    | Some "completed" ->
      Ok (Completed (Option.value (Json.member "result" json) ~default:Json.Null))
    | Some "failed" ->
      let error =
        Option.value (Option.bind (Json.member "error" json) Json.to_str) ~default:"?"
      in
      let diagnostics =
        match Option.bind (Json.member "diagnostics" json) Json.to_list with
        | Some items -> List.filter_map Json.to_str items
        | None -> []
      in
      Ok (Failed { error; diagnostics })
    | Some "timed_out" -> Ok Timed_out
    | Some "cancelled" -> Ok Cancelled
    | Some "infeasible" ->
      let str name dflt =
        Option.value (Option.bind (Json.member name json) Json.to_str) ~default:dflt
      in
      let num name =
        Option.value (Option.bind (Json.member name json) Json.to_float) ~default:Float.nan
      in
      Ok
        (Infeasible
           { inf_spec = str "spec" "?";
             inf_bound = str "bound" "?";
             inf_lo = num "certified_lo";
             inf_hi = num "certified_hi" })
    | Some other -> Error (Printf.sprintf "unknown record status %S" other)
    | None -> Error "record needs a \"status\""
  in
  Ok { rec_id; rec_seed; attempts; status }

(* the records of the journal's longest valid prefix, plus that prefix's
   byte length; a trailing line without '\n' or that fails to parse is
   treated as interruption damage and excluded *)
let read_journal path =
  if not (Sys.file_exists path) then ([], 0)
  else begin
    let text = In_channel.with_open_bin path In_channel.input_all in
    let len = String.length text in
    let rec walk start acc =
      if start >= len then (List.rev acc, start)
      else
        match String.index_from_opt text start '\n' with
        | None -> (List.rev acc, start) (* truncated trailing line *)
        | Some nl ->
          let line = String.sub text start (nl - start) in
          (match
             let* json = Json.parse line in
             record_of_json json
           with
          | Ok r -> walk (nl + 1) (r :: acc)
          | Error _ -> (List.rev acc, start))
    in
    walk 0 []
  end

(* ---- execution -------------------------------------------------------- *)

let find_template name =
  List.find_opt
    (fun (t : Mixsyn_circuit.Template.t) -> t.Mixsyn_circuit.Template.t_name = name)
    Mixsyn_circuit.Topology.all

(* only deterministic outcome fields reach the journal — wall-clock data
   would break the byte-identity contract, so stage timings stay out *)
let flow_result (o : Flow.outcome) =
  Json.Obj
    [ ("topology", Json.Str o.Flow.template.Mixsyn_circuit.Template.t_name);
      ("meets", Json.Bool o.Flow.meets_post_layout);
      ("redesigns", Json.Num (float_of_int o.Flow.redesigns));
      ("cost", Json.Num o.Flow.sizing.Mixsyn_synth.Sizing.cost);
      ("evaluations", Json.Num (float_of_int o.Flow.sizing.Mixsyn_synth.Sizing.evaluations));
      ("area_um2", Json.Num (o.Flow.layout.Mixsyn_layout.Cell_flow.area_m2 *. 1e12));
      ("routed", Json.Bool o.Flow.layout.Mixsyn_layout.Cell_flow.complete);
      ( "post_layout",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) o.Flow.post_layout) );
      ( "warnings",
        Json.Num
          (float_of_int
             (List.length (Mixsyn_check.Diagnostic.warnings o.Flow.diagnostics))) ) ]

let flow_executor ?(stage_cache = true) job ~seed =
  let candidates =
    match job.topology with
    | None -> Mixsyn_circuit.Topology.all
    | Some name ->
      (match find_template name with
       | Some t -> [ t ]
       | None -> failwith (Printf.sprintf "unknown topology %S" name))
  in
  let outcome =
    Flow.run ~seed ?max_redesigns:job.max_redesigns ~candidates ~stage_cache
      ~specs:job.specs ~objectives:job.objectives ~context:job.context ()
  in
  flow_result outcome

let describe_exn = function
  | Mixsyn_check.Lint.Check_failed diags ->
    { error = "check-failed";
      diagnostics =
        List.map
          (fun (d : Mixsyn_check.Diagnostic.t) ->
            Printf.sprintf "%s %s: %s" d.Mixsyn_check.Diagnostic.rule
              d.Mixsyn_check.Diagnostic.loc d.Mixsyn_check.Diagnostic.msg)
          (Mixsyn_check.Diagnostic.errors diags) }
  | Mixsyn_engine.Dc.No_convergence msg ->
    { error = "no-convergence: " ^ msg; diagnostics = [] }
  | Failure msg -> { error = "failure: " ^ msg; diagnostics = [] }
  | Invalid_argument msg -> { error = "invalid-argument: " ^ msg; diagnostics = [] }
  | exn -> { error = Printexc.to_string exn; diagnostics = [] }

(* deterministic seed perturbation between retries: a large odd stride so
   retry seeds never collide with neighbouring jobs' base seeds *)
let retry_stride = 1_000_003

let run_job ?timeout_s ?(retries = 0) ?(executor = flow_executor ~stage_cache:true)
    ?on_attempt job =
  if retries < 0 then
    invalid_arg (Printf.sprintf "Batch.run_job: retries %d negative" retries);
  let timeout_s = match job.timeout_s with Some t -> Some t | None -> timeout_s in
  let rec attempt k =
    let seed = job.seed + (retry_stride * k) in
    let token = Cancel.create ?timeout_s () in
    Option.iter (fun f -> f token) on_attempt;
    match
      Cancel.with_token token @@ fun () ->
      Mixsyn_util.Telemetry.with_span "batch.job" @@ fun () ->
      (match job.fault with
       | Some Raise -> failwith (Printf.sprintf "injected fault in job %s" job.job_id)
       | Some Hang ->
         (* spin at a guard point; only the timeout ends this, which is
            the point — it proves the timed_out path end to end *)
         while true do
           Cancel.guard ();
           Unix.sleepf 2e-3
         done
       | None -> ());
      executor job ~seed
    with
    | result ->
      Mixsyn_util.Telemetry.count "batch.completed";
      { rec_id = job.job_id; rec_seed = seed; attempts = k + 1; status = Completed result }
    | exception Cancel.Cancelled ->
      Mixsyn_util.Telemetry.count "batch.timed_out";
      { rec_id = job.job_id; rec_seed = seed; attempts = k + 1; status = Timed_out }
    | exception exn ->
      if k < retries then begin
        Mixsyn_util.Telemetry.count "batch.retries";
        attempt (k + 1)
      end
      else begin
        Mixsyn_util.Telemetry.count "batch.failed";
        { rec_id = job.job_id; rec_seed = seed; attempts = k + 1; status = Failed (describe_exn exn) }
      end
  in
  attempt 0

(* ---- static prefilter ------------------------------------------------- *)

(* a pure function of the job: the first spec (in manifest order) that the
   certified interval bounds prove unsatisfiable on every candidate the job
   is allowed to select, with the hull of the excluding enclosures.  No
   wall-clock, no randomness — prefiltered records are byte-identical at
   any job count, exactly like executed ones.  Fault-injected jobs are
   never prefiltered: they exist to exercise the executor's failure paths
   and must reach it. *)
let prefilter_job job =
  match job.fault with
  | Some _ -> None
  | None ->
    let candidates =
      match job.topology with
      | None -> Some Mixsyn_circuit.Topology.all
      | Some name ->
        (* unknown topology: let the executor fail with its own taxonomy *)
        (match find_template name with Some t -> Some [ t ] | None -> None)
    in
    (match candidates with
     | None | Some [] -> None
     | Some candidates ->
       let per_candidate =
         List.map
           (fun t ->
             Mixsyn_check.Bounds.infeasible_specs ~context:job.context job.specs t)
           candidates
       in
       List.find_map
         (fun (s : Spec.t) ->
           if
             List.for_all
               (fun inf -> List.exists (fun (s', _) -> s' == s) inf)
               per_candidate
           then begin
             let hull =
               List.fold_left
                 (fun acc inf ->
                   match List.find_opt (fun (s', _) -> s' == s) inf with
                   | Some (_, iv) -> I.hull acc iv
                   | None -> acc)
                 I.empty per_candidate
             in
             Some
               { rec_id = job.job_id;
                 rec_seed = job.seed;
                 attempts = 0;
                 status =
                   Infeasible
                     { inf_spec = s.Spec.s_name;
                       inf_bound = Mixsyn_check.Bounds.bound_to_string s.Spec.bound;
                       inf_lo = I.lo hull;
                       inf_hi = I.hi hull } }
           end
           else None)
         job.specs)

(* ---- the in-order journal writer -------------------------------------- *)

(* records finish in any order; they hit the disk in index order, each line
   flushed as soon as every earlier index has been written.  The journal is
   therefore always a clean prefix — the checkpoint/resume invariant.

   The writer buffers pre-serialized *lines*, not records: each worker
   renders its own record to canonical JSON off-lock (on its own domain,
   overlapped with other jobs), so the section under [w_lock] is pure
   ordering + I/O.  The bytes are identical either way — [Json.to_string]
   is canonical and the render is a pure function of the record. *)
type journal_writer = {
  oc : out_channel;
  w_lock : Mutex.t;
  mutable next : int;
  buffered : (int, string) Hashtbl.t;
}

let writer_push w i line =
  Mutex.lock w.w_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.w_lock)
    (fun () ->
      Hashtbl.replace w.buffered i line;
      while Hashtbl.mem w.buffered w.next do
        let line = Hashtbl.find w.buffered w.next in
        Hashtbl.remove w.buffered w.next;
        output_string w.oc line;
        output_char w.oc '\n';
        flush w.oc;
        w.next <- w.next + 1
      done)

let journal_push w i r = writer_push w i (Json.to_string (record_to_json r))

let truncate_file path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> Unix.ftruncate fd len)

let journal_open path =
  let recorded, valid_len = read_journal path in
  if Sys.file_exists path then truncate_file path valid_len;
  let oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path in
  (recorded, { oc; w_lock = Mutex.create (); next = 0; buffered = Hashtbl.create 16 })

let journal_close w =
  Mutex.lock w.w_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.w_lock)
    (fun () -> close_out w.oc)

(* ---- the batch loop --------------------------------------------------- *)

(* snapshot of the pool's per-domain utilization counters
   ([pool.domain.<i>.busy_us]), as (slot, microseconds) pairs; the summary
   reports the delta over the run, in seconds *)
let domain_busy_us () =
  List.filter_map
    (fun (name, v) ->
      match String.split_on_char '.' name with
      | [ "pool"; "domain"; slot; "busy_us" ] ->
        Option.map (fun i -> (i, v)) (int_of_string_opt slot)
      | _ -> None)
    (Mixsyn_util.Telemetry.counters_alist ())

let domain_busy_delta before after =
  List.sort compare
    (List.filter_map
       (fun (slot, v1) ->
         let v0 = Option.value (List.assoc_opt slot before) ~default:0 in
         if v1 > v0 then Some (slot, float_of_int (v1 - v0) *. 1e-6) else None)
       after)

let run ?jobs ?timeout_s ?(retries = 0) ?(prefilter = true) ?(stage_cache = true)
    ?executor ~journal manifest =
  if retries < 0 then invalid_arg (Printf.sprintf "Batch.run: retries %d negative" retries);
  let executor =
    match executor with Some e -> e | None -> flow_executor ~stage_cache
  in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun j ->
      if Hashtbl.mem seen j.job_id then
        invalid_arg (Printf.sprintf "Batch.run: duplicate job id %S" j.job_id);
      Hashtbl.add seen j.job_id ())
    manifest;
  let t0 = Unix.gettimeofday () in
  (* resume: adopt the journal's valid prefix, cut interruption damage *)
  let recorded, w = journal_open journal in
  let done_tbl = Hashtbl.create 16 in
  (try
     List.iter
       (fun r ->
         if not (Hashtbl.mem seen r.rec_id) then
           invalid_arg
             (Printf.sprintf "Batch.run: journal %s records job %S, not in the manifest"
                journal r.rec_id);
         Hashtbl.replace done_tbl r.rec_id r)
       recorded
   with exn ->
     journal_close w;
     raise exn);
  let pending = Array.of_list (List.filter (fun j -> not (Hashtbl.mem done_tbl j.job_id)) manifest) in
  (* decide prefiltering up front, sequentially: interval certification is
     microseconds per job, and a fixed decision array keeps the journal a
     pure function of the manifest whatever the worker count *)
  let decisions =
    Array.map
      (fun job ->
        if not prefilter then None
        else
          match prefilter_job job with
          | Some r ->
            Mixsyn_util.Telemetry.count "batch.prefiltered";
            Some r
          | None -> None)
      pending
  in
  let run_jobs = Mixsyn_util.Pool.effective_jobs jobs (Array.length pending) in
  let cache_h0, cache_m0 = Flow.stage_cache_stats () in
  let busy0 = domain_busy_us () in
  let fresh =
    Fun.protect
      ~finally:(fun () -> journal_close w)
      (fun () ->
        if Array.length pending = 0 then [||]
        else
          (* whole jobs are the unit of stealing: jobs differ in cost by
             orders of magnitude, so claiming them one at a time is what
             keeps every domain busy until the manifest drains — while a
             worker's warm workspaces (Fmat pools, placer scratch) carry
             over across the consecutive jobs it claims.  Each job runs as
             a pool participant, so the flow inside runs inline. *)
          Mixsyn_util.Pool.parallel_mapi ?jobs
            (fun i job ->
              let r =
                match decisions.(i) with
                | Some r -> r
                | None -> run_job ?timeout_s ~retries ~executor job
              in
              (* serialize on the worker, off the writer lock *)
              journal_push w i r;
              r)
            pending)
  in
  let cache_h1, cache_m1 = Flow.stage_cache_stats () in
  let busy1 = domain_busy_us () in
  Array.iter (fun r -> Hashtbl.replace done_tbl r.rec_id r) fresh;
  let records = List.map (fun j -> Hashtbl.find done_tbl j.job_id) manifest in
  let count p = List.length (List.filter p records) in
  { total = List.length manifest;
    completed = count (fun r -> match r.status with Completed _ -> true | _ -> false);
    failed = count (fun r -> match r.status with Failed _ -> true | _ -> false);
    timed_out = count (fun r -> r.status = Timed_out);
    cancelled = count (fun r -> r.status = Cancelled);
    prefiltered = count (fun r -> match r.status with Infeasible _ -> true | _ -> false);
    skipped = List.length recorded;
    run_jobs;
    elapsed_s = Unix.gettimeofday () -. t0;
    cache_hits = cache_h1 - cache_h0;
    cache_misses = cache_m1 - cache_m0;
    domain_busy_s = domain_busy_delta busy0 busy1;
    records }

(* ---- reporting -------------------------------------------------------- *)

let throughput s =
  let fresh = s.total - s.skipped in
  if s.elapsed_s > 0.0 then float_of_int fresh /. s.elapsed_s else 0.0

let cache_hit_rate s =
  let total = s.cache_hits + s.cache_misses in
  if total = 0 then 0.0 else float_of_int s.cache_hits /. float_of_int total

let summary_to_json s =
  Json.Obj
    [ ("total", Json.Num (float_of_int s.total));
      ("completed", Json.Num (float_of_int s.completed));
      ("failed", Json.Num (float_of_int s.failed));
      ("timed_out", Json.Num (float_of_int s.timed_out));
      ("cancelled", Json.Num (float_of_int s.cancelled));
      ("prefiltered_jobs", Json.Num (float_of_int s.prefiltered));
      ("skipped", Json.Num (float_of_int s.skipped));
      ("jobs", Json.Num (float_of_int s.run_jobs));
      ("elapsed_s", Json.Num s.elapsed_s);
      ("jobs_per_s", Json.Num (throughput s));
      ( "stage_cache",
        Json.Obj
          [ ("hits", Json.Num (float_of_int s.cache_hits));
            ("misses", Json.Num (float_of_int s.cache_misses));
            ("hit_rate", Json.Num (cache_hit_rate s)) ] );
      ( "domain_busy_s",
        Json.Obj
          (List.map
             (fun (slot, busy) -> (string_of_int slot, Json.Num busy))
             s.domain_busy_s) );
      ( "counters",
        Json.Obj
          (List.map
             (fun (n, v) -> (n, Json.Num (float_of_int v)))
             (Mixsyn_util.Telemetry.top_counters ~limit:12 ())) );
      ("records", Json.Arr (List.map record_to_json s.records)) ]

let pp_summary ppf s =
  Format.fprintf ppf
    "batch: %d job(s) — %d completed, %d failed, %d timed-out, %d infeasible%s%s@\n" s.total
    s.completed s.failed s.timed_out s.prefiltered
    (if s.cancelled > 0 then Printf.sprintf ", %d cancelled" s.cancelled else "")
    (if s.skipped > 0 then Printf.sprintf " (%d resumed from journal)" s.skipped else "");
  Format.fprintf ppf "  %d worker(s), %.1fs, %.2f jobs/s@\n" s.run_jobs s.elapsed_s
    (throughput s);
  if s.cache_hits + s.cache_misses > 0 then
    Format.fprintf ppf "  stage cache: %d hit(s), %d miss(es) (%.0f%% hit rate)@\n"
      s.cache_hits s.cache_misses (100.0 *. cache_hit_rate s);
  if s.domain_busy_s <> [] then begin
    Format.fprintf ppf "  domain utilization:";
    List.iter
      (fun (slot, busy) -> Format.fprintf ppf " %d:%.2fs" slot busy)
      s.domain_busy_s;
    Format.fprintf ppf "@\n"
  end;
  Format.fprintf ppf "  telemetry: %a@\n" (Mixsyn_util.Telemetry.pp_rollup ?limit:None) ();
  List.iter
    (fun r ->
      match r.status with
      | Completed _ -> ()
      | Failed f ->
        Format.fprintf ppf "  %-16s FAILED after %d attempt(s): %s@\n" r.rec_id r.attempts
          f.error;
        List.iter (fun d -> Format.fprintf ppf "      %s@\n" d) f.diagnostics
      | Timed_out ->
        Format.fprintf ppf "  %-16s TIMED OUT after %d attempt(s)@\n" r.rec_id r.attempts
      | Cancelled ->
        Format.fprintf ppf "  %-16s CANCELLED after %d attempt(s)@\n" r.rec_id r.attempts
      | Infeasible inf ->
        Format.fprintf ppf "  %-16s INFEASIBLE: %s %s, certified [%g, %g]@\n" r.rec_id
          inf.inf_spec inf.inf_bound inf.inf_lo inf.inf_hi)
    s.records
