(* The synthesis service: Batch execution behind a small HTTP/1.1 loop.

   Concurrency model, chosen for auditability over raw connection count:
   - one accept loop (the calling domain) multiplexing with [Unix.select]
     at a 0.1 s tick so it notices the drain flag promptly;
   - one lightweight thread per accepted connection, which only parses
     requests and manipulates the shared state under [lock] — it never
     executes synthesis work, so a slow client cannot stall a job;
   - [config.workers] dedicated domains pulling whole jobs from the
     bounded queue, each inside [Pool.sequential_scope] so the flow runs
     inline, exactly like a batch job.

   The journal is the contract surface: every admitted job gets the next
   submission-order index and is eventually pushed through
   [Batch.journal_push] — executed, prefiltered, or cancelled-while-queued
   — so the in-order writer never stalls on a hole and the file is always
   a clean resumable prefix, byte-identical to the equivalent batch run. *)

module Json = Mixsyn_util.Json
module Http = Mixsyn_util.Http
module Cancel = Mixsyn_util.Cancel
module Pool = Mixsyn_util.Pool
module Telemetry = Mixsyn_util.Telemetry

type config = {
  host : string;
  port : int;
  journal : string;
  workers : int;
  queue_capacity : int;
  rate_limit : float;
  rate_burst : float;
  timeout_s : float option;
  retries : int;
  prefilter : bool;
  request_timeout_s : float;
}

let default_config ~journal =
  { host = "127.0.0.1";
    port = 0;
    journal;
    workers = Mixsyn_util.Pool.default_jobs ();
    queue_capacity = 64;
    rate_limit = 0.0;
    rate_burst = 8.0;
    timeout_s = None;
    retries = 0;
    prefilter = true;
    request_timeout_s = 10.0 }

type job_state =
  | Queued
  | Running
  | Done of Batch.record

type entry = {
  e_id : string;
  e_index : int;  (* journal line index this session; -1 for resumed records *)
  e_job : Batch.job option;  (* None for resumed records *)
  mutable e_state : job_state;
  mutable e_token : Cancel.token option;
  mutable e_cancel : bool;
}

type bucket = { mutable tokens : float; mutable last : float }

type handle = {
  cfg : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  drain_flag : bool Atomic.t;
  lock : Mutex.t;
  work : Condition.t;
  queue : entry Queue.t;
  jobs : (string, entry) Hashtbl.t;
  mutable order : string list;  (* submission order, reversed *)
  mutable running : int;
  mutable next_index : int;
  writer : Batch.journal_writer;
  executor : Batch.job -> seed:int -> Json.t;
  buckets : (string, bucket) Hashtbl.t;
  requests : int Atomic.t;
  mutable accepted : int;
  resumed : int;
  mutable finished : int;
  mutable cancelled_n : int;
  mutable rej_queue_full : int;
  mutable rej_rate_limited : int;
  mutable rej_draining : int;
}

type stats = {
  requests : int;
  accepted : int;
  resumed : int;
  finished : int;
  cancelled : int;
  rejected_queue_full : int;
  rejected_rate_limited : int;
  rejected_draining : int;
}

let port h = h.bound_port
let drain h = Atomic.set h.drain_flag true
let draining h = Atomic.get h.drain_flag

let locked h f =
  Mutex.lock h.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock h.lock) f

(* ---- views ------------------------------------------------------------- *)

let status_name (r : Batch.record) =
  match r.Batch.status with
  | Batch.Completed _ -> "completed"
  | Batch.Failed _ -> "failed"
  | Batch.Timed_out -> "timed_out"
  | Batch.Infeasible _ -> "infeasible"
  | Batch.Cancelled -> "cancelled"

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done r -> status_name r

let entry_view e = Json.Obj [ ("id", Json.Str e.e_id); ("state", Json.Str (state_name e.e_state)) ]

let err msg = Json.Obj [ ("error", Json.Str msg) ]

(* ---- admission --------------------------------------------------------- *)

(* token bucket per client; called under [lock] *)
let rate_limited h client =
  if h.cfg.rate_limit <= 0.0 then None
  else begin
    let now = Unix.gettimeofday () in
    let b =
      match Hashtbl.find_opt h.buckets client with
      | Some b -> b
      | None ->
        let b = { tokens = h.cfg.rate_burst; last = now } in
        Hashtbl.replace h.buckets client b;
        b
    in
    b.tokens <- Float.min h.cfg.rate_burst (b.tokens +. ((now -. b.last) *. h.cfg.rate_limit));
    b.last <- now;
    if b.tokens >= 1.0 then begin
      b.tokens <- b.tokens -. 1.0;
      None
    end
    else Some (max 1 (int_of_float (Float.ceil ((1.0 -. b.tokens) /. h.cfg.rate_limit))))
  end

let submit h client body =
  if Atomic.get h.drain_flag then begin
    locked h (fun () -> h.rej_draining <- h.rej_draining + 1);
    Telemetry.count "serve.rejected.draining";
    (503, [], Json.to_string (err "draining: not admitting new jobs"))
  end
  else
    match
      let ( let* ) = Result.bind in
      let* json = Json.parse body in
      Batch.job_of_json json
    with
    | Error msg -> (400, [], Json.to_string (err msg))
    | Ok job ->
      locked h @@ fun () ->
      (match Hashtbl.find_opt h.jobs job.Batch.job_id with
       | Some e -> (200, [], Json.to_string (entry_view e))
       | None ->
         (match rate_limited h client with
          | Some retry_after ->
            h.rej_rate_limited <- h.rej_rate_limited + 1;
            Telemetry.count "serve.rejected.rate_limited";
            ( 429,
              [ ("Retry-After", string_of_int retry_after) ],
              Json.to_string (err "rate limit exceeded") )
          | None ->
            if Queue.length h.queue >= h.cfg.queue_capacity then begin
              h.rej_queue_full <- h.rej_queue_full + 1;
              Telemetry.count "serve.rejected.queue_full";
              (429, [ ("Retry-After", "1") ], Json.to_string (err "work queue full"))
            end
            else begin
              let idx = h.next_index in
              h.next_index <- idx + 1;
              h.accepted <- h.accepted + 1;
              Telemetry.count "serve.accepted";
              let e =
                { e_id = job.Batch.job_id;
                  e_index = idx;
                  e_job = Some job;
                  e_state = Queued;
                  e_token = None;
                  e_cancel = false }
              in
              Hashtbl.replace h.jobs e.e_id e;
              h.order <- e.e_id :: h.order;
              (match if h.cfg.prefilter then Batch.prefilter_job job else None with
               | Some r ->
                 e.e_state <- Done r;
                 Batch.journal_push h.writer idx r;
                 h.finished <- h.finished + 1
               | None ->
                 Queue.push e h.queue;
                 Condition.signal h.work);
              (202, [], Json.to_string (entry_view e))
            end))

let cancel_job h id =
  locked h @@ fun () ->
  match Hashtbl.find_opt h.jobs id with
  | None -> (404, [], Json.to_string (err (Printf.sprintf "unknown job %S" id)))
  | Some e ->
    (match e.e_state with
     | Done _ ->
       (409, [], Json.to_string (err (Printf.sprintf "job %S already finished" id)))
     | Queued ->
       (* journal the cancellation at the entry's index right away: the
          worker that eventually pops it skips Done entries, and the
          in-order writer gets the index it is owed *)
       e.e_cancel <- true;
       let job = Option.get e.e_job in
       let r =
         { Batch.rec_id = e.e_id;
           rec_seed = job.Batch.seed;
           attempts = 0;
           status = Batch.Cancelled }
       in
       e.e_state <- Done r;
       Batch.journal_push h.writer e.e_index r;
       h.finished <- h.finished + 1;
       h.cancelled_n <- h.cancelled_n + 1;
       Telemetry.count "serve.cancelled";
       (200, [], Json.to_string (entry_view e))
     | Running ->
       e.e_cancel <- true;
       Option.iter Cancel.cancel e.e_token;
       ( 202,
         [],
         Json.to_string
           (Json.Obj [ ("id", Json.Str id); ("state", Json.Str "cancelling") ]) ))

(* ---- read-side routes -------------------------------------------------- *)

let job_list h =
  locked h @@ fun () ->
  let views =
    List.rev_map (fun id -> entry_view (Hashtbl.find h.jobs id)) h.order
  in
  (200, [], Json.to_string (Json.Obj [ ("jobs", Json.Arr views) ]))

let job_status h id =
  locked h @@ fun () ->
  match Hashtbl.find_opt h.jobs id with
  | None -> (404, [], Json.to_string (err (Printf.sprintf "unknown job %S" id)))
  | Some e -> (200, [], Json.to_string (entry_view e))

let job_result h id =
  locked h @@ fun () ->
  match Hashtbl.find_opt h.jobs id with
  | None -> (404, [], Json.to_string (err (Printf.sprintf "unknown job %S" id)))
  | Some e ->
    (match e.e_state with
     | Done r ->
       (* exactly the journal line's bytes: the render is the same
          canonical [record_to_json] the writer used *)
       (200, [], Json.to_string (Batch.record_to_json r))
     | Queued | Running ->
       ( 409,
         [],
         Json.to_string (err (Printf.sprintf "job %S is %s" id (state_name e.e_state))) ))

let healthz h =
  ( 200,
    [],
    Json.to_string
      (Json.Obj
         [ ("status", Json.Str "ok"); ("draining", Json.Bool (Atomic.get h.drain_flag)) ]) )

let metrics h =
  let queue_depth, running, by_state, counters =
    locked h (fun () ->
        let tally = Hashtbl.create 8 in
        Hashtbl.iter
          (fun _ e ->
            let k = state_name e.e_state in
            Hashtbl.replace tally k (1 + Option.value ~default:0 (Hashtbl.find_opt tally k)))
          h.jobs;
        let by_state =
          List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally [])
        in
        ( Queue.length h.queue,
          h.running,
          by_state,
          ( h.accepted,
            h.resumed,
            h.finished,
            h.rej_queue_full,
            h.rej_rate_limited,
            h.rej_draining ) ))
  in
  let accepted, resumed, finished, qfull, rlim, rdrain = counters in
  let hits, misses = Flow.stage_cache_stats () in
  let hit_rate =
    if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses)
  in
  let worker_busy =
    List.init h.cfg.workers (fun i ->
        ( string_of_int i,
          Json.Num
            (float_of_int (Telemetry.counter (Printf.sprintf "serve.worker.%d.busy_us" i))
            *. 1e-6) ))
  in
  let body =
    Json.Obj
      [ ( "queue",
          Json.Obj
            [ ("depth", Json.Num (float_of_int queue_depth));
              ("capacity", Json.Num (float_of_int h.cfg.queue_capacity));
              ("running", Json.Num (float_of_int running)) ] );
        ( "jobs",
          Json.Obj
            (( "accepted", Json.Num (float_of_int accepted) )
             :: ( "resumed", Json.Num (float_of_int resumed) )
             :: ( "finished", Json.Num (float_of_int finished) )
             :: List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) by_state) );
        ( "rejected",
          Json.Obj
            [ ("queue_full", Json.Num (float_of_int qfull));
              ("rate_limited", Json.Num (float_of_int rlim));
              ("draining", Json.Num (float_of_int rdrain)) ] );
        ( "stage_cache",
          Json.Obj
            [ ("hits", Json.Num (float_of_int hits));
              ("misses", Json.Num (float_of_int misses));
              ("hit_rate", Json.Num hit_rate) ] );
        ("worker_busy_s", Json.Obj worker_busy);
        ("requests", Json.Num (float_of_int (Atomic.get h.requests)));
        ("draining", Json.Bool (Atomic.get h.drain_flag));
        ("telemetry", Telemetry.to_json_value ()) ]
  in
  (200, [], Json.to_string body)

(* ---- routing ----------------------------------------------------------- *)

let segments path =
  List.filter (fun s -> s <> "") (String.split_on_char '/' path)

let route h client (req : Http.request) =
  match (req.Http.meth, segments req.Http.path) with
  | "GET", [ "healthz" ] -> healthz h
  | "GET", [ "metrics" ] -> metrics h
  | "POST", [ "jobs" ] -> submit h client req.Http.body
  | "GET", [ "jobs" ] -> job_list h
  | "GET", [ "jobs"; id ] -> job_status h id
  | "GET", [ "jobs"; id; "result" ] -> job_result h id
  | "POST", [ "jobs"; id; "cancel" ] -> cancel_job h id
  | "POST", [ "drain" ] ->
    drain h;
    (202, [], Json.to_string (Json.Obj [ ("draining", Json.Bool true) ]))
  | _, ([ "healthz" ] | [ "metrics" ] | [ "jobs" ] | [ "drain" ] | [ "jobs"; _ ]
       | [ "jobs"; _; ("result" | "cancel") ]) ->
    (405, [], Json.to_string (err (Printf.sprintf "method %s not allowed here" req.Http.meth)))
  | _ -> (404, [], Json.to_string (err (Printf.sprintf "unknown route %s" req.Http.path)))

(* ---- connection handling ----------------------------------------------- *)

let client_of fd =
  match Unix.getpeername fd with
  | Unix.ADDR_INET (addr, _) -> Unix.string_of_inet_addr addr
  | Unix.ADDR_UNIX _ -> "local"
  | exception Unix.Unix_error _ -> "unknown"

let handle_conn h fd =
  let client = client_of fd in
  let c = Http.conn fd in
  let rec loop () =
    match Http.next_request ~timeout_s:h.cfg.request_timeout_s c with
    | Ok req ->
      Atomic.incr h.requests;
      Telemetry.count "serve.requests";
      (* per-request deadline: route handlers run under an ambient Cancel
         token so anything guarded inside them respects the same budget as
         the socket read *)
      let token = Cancel.create ~timeout_s:h.cfg.request_timeout_s () in
      let status, headers, body =
        match Cancel.with_token token (fun () -> route h client req) with
        | v -> v
        | exception Cancel.Cancelled -> (408, [], Json.to_string (err "request deadline"))
        | exception exn -> (500, [], Json.to_string (err (Printexc.to_string exn)))
      in
      let close =
        match Http.header req "connection" with
        | Some v -> String.lowercase_ascii (String.trim v) = "close"
        | None -> false
      in
      Http.respond ~headers ~close fd ~status ~body;
      if not close then loop ()
    | Error Http.Closed | Error Http.Torn ->
      (* peer gone — between requests is normal, mid-request is its loss *)
      ()
    | Error Http.Timeout ->
      Http.respond fd ~status:408 ~body:(Json.to_string (err "request read timeout"))
    | Error (Http.Too_big msg) ->
      Http.respond fd ~status:413 ~body:(Json.to_string (err msg))
    | Error (Http.Bad msg) ->
      (* framing is unknown after a malformed request: answer and close *)
      Http.respond fd ~status:400 ~body:(Json.to_string (err msg))
  in
  (try loop () with _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* ---- workers ----------------------------------------------------------- *)

let worker_loop h slot =
  let busy = Printf.sprintf "serve.worker.%d.busy_us" slot in
  let rec next () =
    Mutex.lock h.lock;
    while Queue.is_empty h.queue && not (Atomic.get h.drain_flag) do
      Condition.wait h.work h.lock
    done;
    if Queue.is_empty h.queue then begin
      (* draining and nothing left: this worker is done *)
      Mutex.unlock h.lock
    end
    else begin
      let e = Queue.pop h.queue in
      match e.e_state with
      | Done _ ->
        (* cancelled while queued; already journalled *)
        Mutex.unlock h.lock;
        next ()
      | Queued | Running ->
        e.e_state <- Running;
        h.running <- h.running + 1;
        Mutex.unlock h.lock;
        let job = Option.get e.e_job in
        let t0 = Unix.gettimeofday () in
        let r =
          Pool.sequential_scope (fun () ->
              Batch.run_job ?timeout_s:h.cfg.timeout_s ~retries:h.cfg.retries
                ~executor:h.executor
                ~on_attempt:(fun token ->
                  locked h (fun () ->
                      e.e_token <- Some token;
                      if e.e_cancel then Cancel.cancel token))
                job)
        in
        Telemetry.add busy (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6));
        locked h (fun () ->
            (* an explicit cancel surfaces from run_job as Timed_out; the
               requested taxonomy wins in the journal *)
            let r =
              if e.e_cancel && r.Batch.status = Batch.Timed_out then
                { r with Batch.status = Batch.Cancelled }
              else r
            in
            e.e_state <- Done r;
            e.e_token <- None;
            Batch.journal_push h.writer e.e_index r;
            h.finished <- h.finished + 1;
            if r.Batch.status = Batch.Cancelled then begin
              h.cancelled_n <- h.cancelled_n + 1;
              Telemetry.count "serve.cancelled"
            end;
            h.running <- h.running - 1);
        next ()
    end
  in
  next ()

(* ---- the accept loop --------------------------------------------------- *)

let rec accept_loop h =
  let finished =
    Atomic.get h.drain_flag
    && locked h (fun () ->
           (* wake any idle worker so it can observe the drain and exit *)
           Condition.broadcast h.work;
           Queue.is_empty h.queue && h.running = 0)
  in
  if not finished then begin
    (match Unix.select [ h.listen_fd ] [] [] 0.1 with
     | [], _, _ -> ()
     | _ :: _, _, _ ->
       (match Unix.accept h.listen_fd with
        | fd, _ -> ignore (Thread.create (handle_conn h) fd)
        | exception
            Unix.Unix_error
              ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _) ->
          ())
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    accept_loop h
  end

let run ?executor ?on_ready cfg =
  if cfg.workers < 1 then
    invalid_arg (Printf.sprintf "Serve.run: workers %d < 1" cfg.workers);
  if cfg.queue_capacity < 1 then
    invalid_arg (Printf.sprintf "Serve.run: queue capacity %d < 1" cfg.queue_capacity);
  (* a peer closing mid-write must surface as EPIPE, not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let executor =
    match executor with Some e -> e | None -> Batch.flow_executor ~stage_cache:true
  in
  let recorded, writer = Batch.journal_open cfg.journal in
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match
     Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
     Unix.listen listen_fd 64
   with
  | () -> ()
  | exception exn ->
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    Batch.journal_close writer;
    raise exn);
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  let h =
    { cfg;
      listen_fd;
      bound_port;
      drain_flag = Atomic.make false;
      lock = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      jobs = Hashtbl.create 64;
      order = [];
      running = 0;
      next_index = 0;
      writer;
      executor;
      buckets = Hashtbl.create 16;
      requests = Atomic.make 0;
      accepted = 0;
      resumed = List.length recorded;
      finished = 0;
      cancelled_n = 0;
      rej_queue_full = 0;
      rej_rate_limited = 0;
      rej_draining = 0 }
  in
  (* adopt the journal's valid prefix: those jobs are already done, and a
     resubmission of the same id answers instantly from the record *)
  List.iter
    (fun (r : Batch.record) ->
      let e =
        { e_id = r.Batch.rec_id;
          e_index = -1;
          e_job = None;
          e_state = Done r;
          e_token = None;
          e_cancel = false }
      in
      Hashtbl.replace h.jobs e.e_id e;
      h.order <- e.e_id :: h.order)
    recorded;
  let workers = Array.init cfg.workers (fun i -> Domain.spawn (fun () -> worker_loop h i)) in
  Option.iter (fun f -> f h) on_ready;
  accept_loop h;
  locked h (fun () -> Condition.broadcast h.work);
  Array.iter Domain.join workers;
  Batch.journal_close h.writer;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  { requests = Atomic.get h.requests;
    accepted = h.accepted;
    resumed = h.resumed;
    finished = h.finished;
    cancelled = h.cancelled_n;
    rejected_queue_full = h.rej_queue_full;
    rejected_rate_limited = h.rej_rate_limited;
    rejected_draining = h.rej_draining }
