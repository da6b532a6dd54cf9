(* Synthesis service tests: the HTTP framing layer (torn, pipelined,
   oversized and malformed requests) and the end-to-end service contract —
   submit/status/result/cancel/drain over real sockets, rate limiting and
   queue bounds, and journal byte-identity with an equivalent Batch.run,
   including resume from a torn journal. *)

module Http = Mixsyn_util.Http
module Json = Mixsyn_util.Json
module Cancel = Mixsyn_util.Cancel
module Batch = Mixsyn_flow.Batch
module Serve = Mixsyn_flow.Serve

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let temp_journal () =
  let path = Filename.temp_file "msyn_test_serve" ".journal" in
  Sys.remove path;
  path

(* same deterministic stand-in executor as the batch tests: journal bytes
   depend only on the job and seed *)
let cheap_executor (job : Batch.job) ~seed =
  Json.Obj
    [ ("echo", Json.Str job.Batch.job_id);
      ("value", Json.Num (float_of_int (seed * 2) +. 0.5)) ]

(* --- pure request parsing ----------------------------------------------- *)

let parse_exn buf =
  match Http.parse_request buf with
  | Ok v -> v
  | Error _ -> Alcotest.fail "request rejected"

let test_parse_request () =
  let req, consumed =
    parse_exn "POST /jobs?limit=2&full HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbodyleftover"
  in
  Alcotest.(check string) "meth" "POST" req.Http.meth;
  Alcotest.(check string) "path" "/jobs" req.Http.path;
  Alcotest.(check (list (pair string string))) "query" [ ("limit", "2"); ("full", "") ]
    req.Http.query;
  Alcotest.(check string) "body" "body" req.Http.body;
  Alcotest.(check (option string)) "header lowercased" (Some "x") (Http.header req "HOST");
  (* consumed stops at the end of the body, leaving pipelined bytes *)
  Alcotest.(check int) "consumed" (String.length "POST /jobs?limit=2&full HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody") consumed

let test_parse_partial_and_bad () =
  let partial buf =
    match Http.parse_request buf with
    | Error Http.Partial -> ()
    | Ok _ -> Alcotest.failf "parsed a partial request: %S" buf
    | Error _ -> Alcotest.failf "partial misclassified: %S" buf
  in
  let malformed buf =
    match Http.parse_request buf with
    | Error (Http.Malformed _) -> ()
    | _ -> Alcotest.failf "malformed accepted: %S" buf
  in
  partial "GET /x HTTP/1.1\r\nHost:";
  partial "GET /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nhalf";
  partial "";
  malformed "FETCH-THE-THING\r\n\r\n";
  malformed "GET nothing HTTP/1.1\r\n\r\n";
  malformed "GET /x SPDY/9\r\n\r\n";
  malformed "GET /x HTTP/1.1\r\nbadheader\r\n\r\n";
  malformed "GET /x HTTP/1.1\r\nContent-Length: many\r\n\r\n";
  malformed "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"

let test_parse_oversized () =
  let too_large buf =
    match Http.parse_request ~max_header_bytes:64 ~max_body_bytes:32 buf with
    | Error (Http.Too_large _) -> ()
    | _ -> Alcotest.fail "oversized accepted"
  in
  too_large ("GET /x HTTP/1.1\r\nPadding: " ^ String.make 100 'a' ^ "\r\n\r\n");
  (* an unterminated header block already past the cap must not read as
     Partial, or a hostile client grows the buffer forever *)
  too_large ("GET /x HTTP/1.1\r\nPadding: " ^ String.make 100 'a');
  too_large "POST /x HTTP/1.1\r\nContent-Length: 4096\r\n\r\n"

(* --- the buffered connection reader ------------------------------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let send fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let test_conn_pipelined () =
  with_socketpair @@ fun client server ->
  let c = Http.conn server in
  (* two full requests land in one write; both must parse without another
     socket read *)
  send client "GET /one HTTP/1.1\r\n\r\nGET /two HTTP/1.1\r\n\r\n";
  (match Http.next_request ~timeout_s:2.0 c with
   | Ok r -> Alcotest.(check string) "first" "/one" r.Http.path
   | Error _ -> Alcotest.fail "first request lost");
  Unix.close client;
  (match Http.next_request ~timeout_s:2.0 c with
   | Ok r -> Alcotest.(check string) "second" "/two" r.Http.path
   | Error _ -> Alcotest.fail "second request lost");
  match Http.next_request ~timeout_s:2.0 c with
  | Error Http.Closed -> ()
  | _ -> Alcotest.fail "expected Closed at end of stream"

let test_conn_torn_and_timeout () =
  with_socketpair (fun client server ->
      let c = Http.conn server in
      send client "POST /jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\nonly-a-fragment";
      Unix.close client;
      match Http.next_request ~timeout_s:2.0 c with
      | Error Http.Torn -> ()
      | _ -> Alcotest.fail "mid-request close must read as Torn");
  with_socketpair (fun client server ->
      let c = Http.conn server in
      send client "GET /slow HTTP/1.1\r\n";
      match Http.next_request ~timeout_s:0.2 c with
      | Error Http.Timeout -> ()
      | _ -> Alcotest.fail "stalled request must time out")

let test_conn_oversized () =
  with_socketpair @@ fun client server ->
  let c = Http.conn ~max_body_bytes:64 server in
  send client "POST /jobs HTTP/1.1\r\nContent-Length: 4096\r\n\r\n";
  match Http.next_request ~timeout_s:2.0 c with
  | Error (Http.Too_big _) -> ()
  | _ -> Alcotest.fail "oversized body must be rejected before it is read"

(* --- service helpers ----------------------------------------------------- *)

let with_server ?(workers = 2) ?(tweak = fun c -> c) ?(executor = cheap_executor)
    ?journal f =
  let journal = match journal with Some j -> j | None -> temp_journal () in
  let cfg = tweak { (Serve.default_config ~journal) with Serve.workers } in
  let slot = Atomic.make None in
  let server = Domain.spawn (fun () -> Serve.run ~executor ~on_ready:(fun h -> Atomic.set slot (Some h)) cfg) in
  let rec handle () =
    match Atomic.get slot with
    | Some h -> h
    | None ->
      Unix.sleepf 0.005;
      handle ()
  in
  let h = handle () in
  let finish () =
    Serve.drain h;
    Domain.join server
  in
  match f h with
  | v ->
    let stats = finish () in
    (v, stats, journal)
  | exception exn ->
    ignore (finish ());
    raise exn

let call h meth path body =
  match
    Http.request ~timeout_s:10.0 ?body ~host:"127.0.0.1" ~port:(Serve.port h) ~meth ~path ()
  with
  | Ok (status, headers, body) -> (status, headers, body)
  | Error msg -> Alcotest.failf "%s %s: %s" meth path msg

let get h path = call h "GET" path None
let post h path body = call h "POST" path (Some body)

let state_of body =
  match Json.parse body with
  | Ok json -> Option.value ~default:"?" (Option.bind (Json.member "state" json) Json.to_str)
  | Error msg -> Alcotest.failf "bad state body %S: %s" body msg

let rec poll_done ?(deadline = 30.0) h id =
  let status, _, body = get h ("/jobs/" ^ id) in
  Alcotest.(check int) ("status of " ^ id) 200 status;
  match state_of body with
  | "queued" | "running" ->
    if deadline <= 0.0 then Alcotest.failf "job %s never finished" id;
    Unix.sleepf 0.02;
    poll_done ~deadline:(deadline -. 0.02) h id
  | s -> s

(* --- end-to-end service tests -------------------------------------------- *)

let test_submit_status_result () =
  let (), stats, journal =
    with_server (fun h ->
        let status, _, body = post h "/jobs" {|{"id": "j1", "seed": 4}|} in
        Alcotest.(check int) "submit" 202 status;
        Alcotest.(check bool) "admitted state" true
          (List.mem (state_of body) [ "queued"; "running" ]);
        (* resubmission of a known id is idempotent, not a second job *)
        let status, _, _ = post h "/jobs" {|{"id": "j1", "seed": 4}|} in
        Alcotest.(check int) "idempotent resubmit" 200 status;
        Alcotest.(check string) "completes" "completed" (poll_done h "j1");
        let status, _, result = get h "/jobs/j1/result" in
        Alcotest.(check int) "result" 200 status;
        (* the result body is the record, which must parse back *)
        (match Result.bind (Json.parse result) Batch.record_of_json with
         | Ok r ->
           Alcotest.(check string) "record id" "j1" r.Batch.rec_id;
           Alcotest.(check int) "seed" 4 r.Batch.rec_seed
         | Error msg -> Alcotest.failf "result line invalid: %s" msg);
        let status, _, body = get h "/jobs" in
        Alcotest.(check int) "list" 200 status;
        (match Result.bind (Json.parse body) (fun j ->
             Option.to_result ~none:"jobs" (Option.bind (Json.member "jobs" j) Json.to_list))
         with
         | Ok [ _ ] -> ()
         | Ok l -> Alcotest.failf "expected 1 job listed, got %d" (List.length l)
         | Error m -> Alcotest.fail m))
  in
  Alcotest.(check int) "accepted" 1 stats.Serve.accepted;
  Alcotest.(check int) "finished" 1 stats.Serve.finished;
  (* drained journal holds exactly the one record *)
  let records, _ = Batch.read_journal journal in
  Alcotest.(check int) "journal records" 1 (List.length records)

let test_error_taxonomy () =
  let (), _, _ =
    with_server (fun h ->
        let status, _, _ = post h "/jobs" "this is not json" in
        Alcotest.(check int) "bad json" 400 status;
        let status, _, _ = post h "/jobs" {|{"seed": 3}|} in
        Alcotest.(check int) "schema violation" 400 status;
        let status, _, _ = get h "/no/such/route" in
        Alcotest.(check int) "unknown route" 404 status;
        let status, _, _ = post h "/healthz" "" in
        Alcotest.(check int) "wrong method" 405 status;
        let status, _, _ = get h "/jobs/ghost" in
        Alcotest.(check int) "unknown job" 404 status;
        let status, _, _ = post h "/jobs/ghost/cancel" "" in
        Alcotest.(check int) "cancel unknown job" 404 status;
        let status, _, _ = get h "/jobs/ghost/result" in
        Alcotest.(check int) "result of unknown job" 404 status;
        let status, _, body = get h "/healthz" in
        Alcotest.(check int) "healthz" 200 status;
        (match Json.parse body with
         | Ok j ->
           Alcotest.(check (option string)) "healthz ok" (Some "ok")
             (Option.bind (Json.member "status" j) Json.to_str)
         | Error m -> Alcotest.fail m))
  in
  ()

let test_metrics () =
  let (), _, _ =
    with_server (fun h ->
        ignore (post h "/jobs" {|{"id": "m1"}|});
        Alcotest.(check string) "done" "completed" (poll_done h "m1");
        let status, _, body = get h "/metrics" in
        Alcotest.(check int) "metrics" 200 status;
        match Json.parse body with
        | Error m -> Alcotest.failf "metrics not JSON: %s" m
        | Ok j ->
          let num path =
            match
              List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path
            with
            | Some v -> Option.value ~default:Float.nan (Json.to_float v)
            | None -> Alcotest.failf "metrics lacks %s" (String.concat "." path)
          in
          Alcotest.(check (float 0.0)) "accepted" 1.0 (num [ "jobs"; "accepted" ]);
          Alcotest.(check (float 0.0)) "finished" 1.0 (num [ "jobs"; "finished" ]);
          ignore (num [ "queue"; "capacity" ]);
          ignore (num [ "stage_cache"; "hit_rate" ]);
          (* the telemetry rollup and per-worker busy seconds ride along *)
          (match Json.member "telemetry" j with
           | Some (Json.Obj _) -> ()
           | _ -> Alcotest.fail "metrics lacks telemetry rollup");
          (match Json.member "worker_busy_s" j with
           | Some (Json.Obj l) ->
             Alcotest.(check int) "one entry per worker" 2 (List.length l)
           | _ -> Alcotest.fail "metrics lacks worker_busy_s"))
  in
  ()

let test_rate_limit () =
  let (), stats, _ =
    with_server
      ~tweak:(fun c -> { c with Serve.rate_limit = 0.5; rate_burst = 1.0 })
      (fun h ->
        let status, _, _ = post h "/jobs" {|{"id": "r1"}|} in
        Alcotest.(check int) "first passes" 202 status;
        let status, headers, _ = post h "/jobs" {|{"id": "r2"}|} in
        Alcotest.(check int) "second rate-limited" 429 status;
        (match List.assoc_opt "retry-after" headers with
         | Some v -> Alcotest.(check bool) "retry-after positive" true (int_of_string v > 0)
         | None -> Alcotest.fail "429 without Retry-After");
        Alcotest.(check string) "r1 still completes" "completed" (poll_done h "r1"))
  in
  Alcotest.(check int) "one rejection counted" 1 stats.Serve.rejected_rate_limited

(* an executor that spins at guard points until cancelled (or for
   [busy_s] if it is positive) *)
let spin_executor ?(busy_s = 0.0) () (_ : Batch.job) ~seed =
  let t0 = Unix.gettimeofday () in
  let forever = busy_s <= 0.0 in
  while forever || Unix.gettimeofday () -. t0 < busy_s do
    Cancel.guard ();
    Unix.sleepf 0.005
  done;
  Json.Obj [ ("seed", Json.Num (float_of_int seed)) ]

let rec poll_state ?(deadline = 30.0) h id want =
  let _, _, body = get h ("/jobs/" ^ id) in
  let s = state_of body in
  if s = want then ()
  else begin
    if deadline <= 0.0 then Alcotest.failf "job %s stuck in %s, wanted %s" id s want;
    Unix.sleepf 0.02;
    poll_state ~deadline:(deadline -. 0.02) h id want
  end

let test_queue_full_and_cancel_queued () =
  let (), stats, journal =
    with_server ~workers:1
      ~tweak:(fun c -> { c with Serve.queue_capacity = 1 })
      ~executor:(spin_executor ~busy_s:1.2 ())
      (fun h ->
        ignore (post h "/jobs" {|{"id": "slow"}|});
        (* wait until the lone worker owns it, so the queue is empty again *)
        poll_state h "slow" "running";
        let status, _, _ = post h "/jobs" {|{"id": "waiting"}|} in
        Alcotest.(check int) "fills the queue" 202 status;
        let status, headers, _ = post h "/jobs" {|{"id": "overflow"}|} in
        Alcotest.(check int) "queue full" 429 status;
        Alcotest.(check bool) "retry-after present" true
          (List.mem_assoc "retry-after" headers);
        (* cancel the queued job: journalled immediately, never executed *)
        let status, _, body = post h "/jobs/waiting/cancel" "" in
        Alcotest.(check int) "cancel queued" 200 status;
        Alcotest.(check string) "cancelled state" "cancelled" (state_of body);
        let status, _, result = get h "/jobs/waiting/result" in
        Alcotest.(check int) "cancelled result available" 200 status;
        (match Result.bind (Json.parse result) Batch.record_of_json with
         | Ok r ->
           Alcotest.(check bool) "status cancelled" true (r.Batch.status = Batch.Cancelled);
           Alcotest.(check int) "never attempted" 0 r.Batch.attempts
         | Error m -> Alcotest.fail m);
        let status, _, _ = post h "/jobs/waiting/cancel" "" in
        Alcotest.(check int) "cancel of finished job" 409 status)
  in
  Alcotest.(check int) "queue-full rejection counted" 1 stats.Serve.rejected_queue_full;
  Alcotest.(check int) "cancelled counted" 1 stats.Serve.cancelled;
  (* journal: slow (completed) then waiting (cancelled), in submission order *)
  match Batch.read_journal journal |> fst with
  | [ a; b ] ->
    Alcotest.(check string) "first line" "slow" a.Batch.rec_id;
    Alcotest.(check string) "second line" "waiting" b.Batch.rec_id;
    Alcotest.(check bool) "cancelled journalled" true (b.Batch.status = Batch.Cancelled)
  | l -> Alcotest.failf "expected 2 journal records, got %d" (List.length l)

let test_cancel_running () =
  let (), stats, _ =
    with_server ~workers:1 ~executor:(spin_executor ())
      (fun h ->
        ignore (post h "/jobs" {|{"id": "spin"}|});
        poll_state h "spin" "running";
        let status, _, _ = post h "/jobs/spin/cancel" "" in
        Alcotest.(check int) "cancel accepted" 202 status;
        Alcotest.(check string) "ends cancelled" "cancelled" (poll_done h "spin"))
  in
  Alcotest.(check int) "cancelled counted" 1 stats.Serve.cancelled

let test_drain_rejects_submissions () =
  (* a deliberately slow job keeps the drain window open: the server only
     exits once the queue is empty and nothing is running, so while [d1]
     spins we can observe draining behaviour over live connections *)
  let (), stats, _ =
    with_server ~workers:1 ~executor:(spin_executor ~busy_s:1.5 ())
      (fun h ->
        ignore (post h "/jobs" {|{"id": "d1"}|});
        poll_state h "d1" "running";
        let status, _, _ = post h "/drain" "" in
        Alcotest.(check int) "drain accepted" 202 status;
        Alcotest.(check bool) "draining visible" true (Serve.draining h);
        let status, _, _ = post h "/jobs" {|{"id": "late"}|} in
        Alcotest.(check int) "draining rejects submits" 503 status;
        (* reads keep answering during the drain *)
        let status, _, _ = get h "/jobs/d1" in
        Alcotest.(check int) "status during drain" 200 status)
  in
  Alcotest.(check int) "draining rejection counted" 1 stats.Serve.rejected_draining;
  Alcotest.(check int) "late job not admitted" 1 stats.Serve.accepted

(* the byte-identity contract: a serve session and a batch run over the
   same jobs in the same order write the same journal bytes.  The mix
   covers executed, prefiltered and fault-injected records. *)
let identity_manifest =
  [ {|{"id": "a", "seed": 1}|};
    {|{"id": "b", "seed": 2, "specs": [{"name": "gain_db", "at_least": 40.0}]}|};
    {|{"id": "impossible", "specs": [{"name": "gain_db", "at_least": 1000.0}], "topology": "ota-5t"}|};
    {|{"id": "boom", "fault": "raise"}|};
    {|{"id": "c", "seed": 3}|} ]

let batch_reference () =
  let journal = temp_journal () in
  let jobs =
    match Batch.manifest_of_string (String.concat "\n" identity_manifest) with
    | Ok jobs -> jobs
    | Error msg -> Alcotest.failf "identity manifest invalid: %s" msg
  in
  ignore (Batch.run ~jobs:1 ~executor:cheap_executor ~journal jobs);
  let bytes = read_file journal in
  Sys.remove journal;
  bytes

let test_journal_identity_with_batch () =
  let reference = batch_reference () in
  let id_of line =
    match Json.parse line with
    | Ok j -> Option.get (Option.bind (Json.member "id" j) Json.to_str)
    | Error m -> Alcotest.fail m
  in
  let submit h line =
    let status, _, _ = post h "/jobs" line in
    if status <> 202 then Alcotest.failf "submit %s -> %d" line status
  in
  (* sequential submission, like a batch manifest: wait out each job so
     journal order is also completion order; then a burst onto 4 workers,
     where jobs may finish out of order but are journalled in submission order *)
  List.iter
    (fun (label, workers, drive) ->
      let (), stats, journal = with_server ~workers drive in
      let served = read_file journal in
      Sys.remove journal;
      Alcotest.(check int) (label ^ ": drain finished every job")
        (List.length identity_manifest) stats.Serve.finished;
      Alcotest.(check string) (label ^ ": serve journal byte-identical to batch") reference
        served)
    [ ( "sequential",
        2,
        fun h ->
          List.iter
            (fun line ->
              submit h line;
              ignore (poll_done h (id_of line)))
            identity_manifest );
      ( "burst",
        4,
        fun h ->
          List.iter (submit h) identity_manifest;
          List.iter (fun line -> ignore (poll_done h (id_of line))) identity_manifest ) ]

(* kill-mid-request resume: the same torn-journal machinery batch resume
   uses.  A journal holding a valid prefix plus a torn trailing line —
   what a SIGKILL mid-write leaves — boots cleanly, answers the recorded
   jobs without re-executing them, and finishes byte-identical. *)
let test_resume_from_torn_journal () =
  let reference = batch_reference () in
  let lines = String.split_on_char '\n' reference in
  let first_line = List.hd lines ^ "\n" in
  let torn = first_line ^ String.sub (List.nth lines 1) 0 20 in
  let journal = temp_journal () in
  write_file journal torn;
  let executed = Atomic.make [] in
  let counting_executor job ~seed =
    let rec note () =
      let l = Atomic.get executed in
      if not (Atomic.compare_and_set executed l (job.Batch.job_id :: l)) then note ()
    in
    note ();
    cheap_executor job ~seed
  in
  let (), stats, journal =
    with_server ~journal ~executor:counting_executor (fun h ->
        List.iter
          (fun line ->
            let status, _, _ = post h "/jobs" line in
            (* the resumed job answers 200 from the record, the rest 202 *)
            if status <> 200 && status <> 202 then
              Alcotest.failf "resubmit %s -> %d" line status;
            match Json.parse line with
            | Ok j ->
              let id = Option.get (Option.bind (Json.member "id" j) Json.to_str) in
              ignore (poll_done h id)
            | Error m -> Alcotest.fail m)
          identity_manifest)
  in
  Alcotest.(check int) "one record resumed" 1 stats.Serve.resumed;
  Alcotest.(check bool) "resumed job not re-executed" false
    (List.mem "a" (Atomic.get executed));
  let resumed = read_file journal in
  Sys.remove journal;
  Alcotest.(check string) "torn journal resumes byte-identical" reference resumed

(* a raw-socket request the Http client cannot produce: malformed framing
   must get a clean 400 and the connection must close, not take the accept
   loop down *)
let test_raw_malformed_request () =
  let (), _, _ =
    with_server (fun h ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            Unix.connect fd
              (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", Serve.port h));
            let msg = "NOT-HTTP-AT-ALL\r\n\r\n" in
            ignore (Unix.write_substring fd msg 0 (String.length msg));
            let buf = Bytes.create 1024 in
            let n = Unix.read fd buf 0 1024 in
            let text = Bytes.sub_string buf 0 n in
            Alcotest.(check bool) "answers 400" true
              (String.length text >= 12 && String.sub text 9 3 = "400"));
        (* and the server still answers afterwards *)
        let status, _, _ = get h "/healthz" in
        Alcotest.(check int) "still alive" 200 status)
  in
  ()

let () =
  Alcotest.run "serve"
    [ ( "http",
        [ Alcotest.test_case "parse request" `Quick test_parse_request;
          Alcotest.test_case "partial and malformed" `Quick test_parse_partial_and_bad;
          Alcotest.test_case "oversized" `Quick test_parse_oversized;
          Alcotest.test_case "pipelined connection" `Quick test_conn_pipelined;
          Alcotest.test_case "torn and stalled" `Quick test_conn_torn_and_timeout;
          Alcotest.test_case "oversized on the wire" `Quick test_conn_oversized ] );
      ( "service",
        [ Alcotest.test_case "submit, status, result" `Quick test_submit_status_result;
          Alcotest.test_case "error taxonomy" `Quick test_error_taxonomy;
          Alcotest.test_case "metrics" `Quick test_metrics;
          Alcotest.test_case "rate limit" `Quick test_rate_limit;
          Alcotest.test_case "queue bound and queued cancel" `Quick
            test_queue_full_and_cancel_queued;
          Alcotest.test_case "cancel running job" `Quick test_cancel_running;
          Alcotest.test_case "drain rejects submissions" `Quick
            test_drain_rejects_submissions;
          Alcotest.test_case "journal identity with batch" `Quick
            test_journal_identity_with_batch;
          Alcotest.test_case "resume from torn journal" `Quick
            test_resume_from_torn_journal;
          Alcotest.test_case "raw malformed request" `Quick test_raw_malformed_request ] ) ]
