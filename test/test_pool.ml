(* Domain-pool tests: the determinism contract (results independent of the
   job count), exception propagation, the single level of parallelism, RNG
   stream independence, and sequential-vs-parallel equality on every loop
   wired to the pool. *)

module Pool = Mixsyn_util.Pool
module Rng = Mixsyn_util.Rng
module Anneal = Mixsyn_opt.Anneal
module GA = Mixsyn_opt.Genetic
module CS = Mixsyn_opt.Corner_search
module Top = Mixsyn_circuit.Topology
module Tp = Mixsyn_circuit.Template

let tech = Mixsyn_circuit.Tech.generic_07um

(* --- core map/reduce --------------------------------------------------- *)

let test_map_matches_sequential () =
  let input = Array.init 257 (fun i -> i) in
  let f x = (x * x) + 3 in
  let expected = Array.map f input in
  List.iter
    (fun jobs ->
      let got = Pool.parallel_map ~jobs f input in
      if got <> expected then Alcotest.failf "parallel_map mismatch at jobs=%d" jobs)
    [ 1; 2; 4; 64 ]

let test_map_edge_cases () =
  (* empty input, jobs > items, singleton *)
  Alcotest.(check (array int)) "empty" [||] (Pool.parallel_map ~jobs:4 (fun x -> x) [||]);
  Alcotest.(check (array int)) "jobs > items" [| 2; 4; 6 |]
    (Pool.parallel_map ~jobs:64 (fun x -> 2 * x) [| 1; 2; 3 |]);
  Alcotest.(check (array int)) "singleton" [| 9 |]
    (Pool.parallel_map ~jobs:8 (fun x -> x * x) [| 3 |]);
  Alcotest.(check (array int)) "init" [| 0; 1; 4; 9 |]
    (Pool.parallel_init ~jobs:3 4 (fun i -> i * i));
  (match Pool.parallel_init ~jobs:2 (-1) (fun i -> i) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "parallel_init (-1) must raise");
  Alcotest.(check (array int)) "fewer items than jobs" [| 2; 3; 4 |]
    (Pool.parallel_map ~jobs:4 succ [| 1; 2; 3 |])

let test_reduce_index_order () =
  (* string concatenation is non-commutative: only results in index order
     fold to the sequential answer *)
  let input = Array.init 100 (fun i -> i) in
  let expected = String.concat "" (List.map string_of_int (Array.to_list input)) in
  List.iter
    (fun jobs ->
      let got = Array.fold_left ( ^ ) "" (Pool.parallel_map ~jobs string_of_int input) in
      Alcotest.(check string) (Printf.sprintf "reduce jobs=%d" jobs) expected got)
    [ 1; 3; 64 ]

exception Boom of int

let test_exception_propagation () =
  (* every index >= 50 fails; the caller must see the smallest failing
     index whatever the scheduling *)
  for _ = 1 to 5 do
    match
      Pool.parallel_map ~jobs:4 (fun i -> if i >= 50 then raise (Boom i) else i)
        (Array.init 200 (fun i -> i))
    with
    | _ -> Alcotest.fail "expected Boom"
    | exception Boom i -> Alcotest.(check int) "min failing index" 50 i
  done

let test_nested_calls () =
  (* a parallel call from inside a worker degrades to sequential instead of
     deadlocking *)
  let outer =
    Pool.parallel_init ~jobs:4 8 (fun i ->
        Array.fold_left ( + ) 0 (Pool.parallel_init ~jobs:4 10 (fun j -> (i * 10) + j)))
  in
  let expected = Array.init 8 (fun i -> (100 * i) + 45) in
  Alcotest.(check (array int)) "nested" expected outer

let test_single_level () =
  (* every item is a pool participant, on the calling domain as on the
     helpers: only the outer call fans out *)
  Mixsyn_util.Telemetry.reset ();
  let outer =
    Pool.parallel_init ~jobs:2 6 (fun i ->
        Array.fold_left ( + ) 0 (Pool.parallel_init ~jobs:2 4 (fun j -> (i * 4) + j)))
  in
  Alcotest.(check (array int)) "results" (Array.init 6 (fun i -> (16 * i) + 6)) outer;
  Alcotest.(check int) "one parallel run" 1
    (Mixsyn_util.Telemetry.counter "pool.parallel_runs");
  (* at jobs = 1 the items are participants too *)
  Mixsyn_util.Telemetry.reset ();
  ignore
    (Pool.parallel_init ~jobs:1 3 (fun _ -> Pool.parallel_init ~jobs:2 4 Fun.id));
  Alcotest.(check int) "inline under jobs = 1" 0
    (Mixsyn_util.Telemetry.counter "pool.parallel_runs")

let test_default_jobs_override () =
  let before = Pool.default_jobs () in
  Pool.set_default_jobs 3;
  Alcotest.(check int) "override" 3 (Pool.default_jobs ());
  Pool.set_default_jobs 1000;
  if Pool.default_jobs () > 64 then Alcotest.fail "override must clamp";
  Pool.set_default_jobs before

let test_jobs_validation () =
  (* the one validation point behind --jobs and MIXSYN_JOBS *)
  (match Pool.validate_jobs 4 with
   | Ok 4 -> ()
   | Ok n -> Alcotest.failf "validate_jobs 4 = %d" n
   | Error msg -> Alcotest.failf "validate_jobs 4 rejected: %s" msg);
  (match Pool.validate_jobs 1000 with
   | Ok n when n <= 64 -> ()
   | Ok n -> Alcotest.failf "validate_jobs must clamp, got %d" n
   | Error msg -> Alcotest.failf "validate_jobs 1000 rejected: %s" msg);
  List.iter
    (fun n ->
      match Pool.validate_jobs n with
      | Error _ -> ()
      | Ok m -> Alcotest.failf "validate_jobs %d accepted as %d" n m)
    [ 0; -1; -64 ];
  (match Pool.jobs_of_string " 8 " with
   | Ok 8 -> ()
   | _ -> Alcotest.fail "jobs_of_string must trim and parse");
  List.iter
    (fun s ->
      match Pool.jobs_of_string s with
      | Error _ -> ()
      | Ok n -> Alcotest.failf "jobs_of_string %S accepted as %d" s n)
    [ "0"; "-2"; "many"; "" ];
  List.iter
    (fun n ->
      match Pool.set_default_jobs n with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "set_default_jobs %d must raise" n)
    [ 0; -3 ]

let test_float_results_unboxed_sound () =
  (* results assemble into a flat float array; every element must read
     back exactly, at any job count *)
  let input = Array.init 301 (fun i -> float_of_int i) in
  let f x = (x *. 1.5) -. 0.25 in
  let expected = Array.map f input in
  List.iter
    (fun jobs ->
      let got = Pool.parallel_map ~jobs f input in
      if got <> expected then Alcotest.failf "float parallel_map mismatch at jobs=%d" jobs)
    [ 1; 2; 4 ];
  (* failure at index 0 exercises the no-successful-piece path *)
  (match
     Pool.parallel_map ~jobs:4 (fun x -> if x = 0.0 then raise (Boom 0) else x) input
   with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom 0 -> ()
  | exception Boom i -> Alcotest.failf "wrong index %d" i)

let test_sequential_scope () =
  (* inside the scope, parallel calls degrade to sequential (the calling
     domain is marked as a pool participant); the flag restores on exit,
     including on raise *)
  let inside =
    Pool.sequential_scope (fun () ->
        Pool.parallel_init ~jobs:8 6 (fun i -> i * i))
  in
  Alcotest.(check (array int)) "scope results" [| 0; 1; 4; 9; 16; 25 |] inside;
  (try Pool.sequential_scope (fun () -> failwith "x") with Failure _ -> ());
  let after = Pool.parallel_init ~jobs:4 4 (fun i -> i + 1) in
  Alcotest.(check (array int)) "pool usable after scope raise" [| 1; 2; 3; 4 |] after

(* --- RNG stream independence ------------------------------------------- *)

let test_split_n_streams () =
  let streams = Rng.split_n (Rng.create 42) 4 in
  Alcotest.(check int) "stream count" 4 (Array.length streams);
  let draws = Array.map (fun rng -> List.init 16 (fun _ -> Rng.int rng 1_000_000_000)) streams in
  (* streams must be pairwise distinct... *)
  Array.iteri
    (fun i di ->
      Array.iteri
        (fun j dj -> if i < j && di = dj then Alcotest.failf "streams %d and %d collide" i j)
        draws)
    draws;
  (* ...and reproducible from the same parent seed *)
  let again = Rng.split_n (Rng.create 42) 4 in
  Array.iteri
    (fun i rng ->
      let d = List.init 16 (fun _ -> Rng.int rng 1_000_000_000) in
      if d <> draws.(i) then Alcotest.failf "stream %d not reproducible" i)
    again;
  Alcotest.(check (array int)) "split_n 0" [||]
    (Array.map (fun _ -> 0) (Rng.split_n (Rng.create 1) 0))

(* --- seq-vs-parallel equality on the wired loops ------------------------ *)

let test_corner_search_jobs_invariant () =
  let violation (c : Mixsyn_circuit.Tech.corner) =
    Float.abs c.Mixsyn_circuit.Tech.d_vdd
    +. (0.01 *. Float.abs c.Mixsyn_circuit.Tech.d_temp)
    +. Float.abs c.Mixsyn_circuit.Tech.d_vth
    +. Float.abs c.Mixsyn_circuit.Tech.d_kp
  in
  let run jobs = CS.worst_corner ~refine:false ~jobs ~violation () in
  let c1, v1, e1 = run 1 and c4, v4, e4 = run 4 in
  Alcotest.(check (float 0.0)) "violation" v1 v4;
  Alcotest.(check int) "evals" e1 e4;
  if c1 <> c4 then Alcotest.fail "corner differs between jobs=1 and jobs=4"

let test_multistart_jobs_invariant () =
  let problem =
    { Anneal.initial = [| 8.0; -6.0 |];
      cost = (fun x -> ((x.(0) -. 2.0) ** 2.0) +. ((x.(1) +. 1.0) ** 2.0));
      neighbor =
        (fun rng ~temp01 x ->
          let x' = Array.copy x in
          let i = Rng.int rng 2 in
          x'.(i) <- x'.(i) +. (Rng.uniform rng (-1.0) 1.0 *. (0.1 +. temp01));
          x') }
  in
  let schedule = { Anneal.t_start = 10.0; t_end = 1e-4; cooling = 0.9; moves_per_stage = 60 } in
  let run jobs =
    Anneal.minimize_multistart ~schedule ~jobs ~restarts:4 ~rng:(Rng.create 7) problem
  in
  let a = run 1 and b = run 4 in
  if a <> b then Alcotest.fail "multistart outcome differs between jobs=1 and jobs=4";
  (* restarts = 1 consumes the rng directly, exactly like minimize *)
  let single = Anneal.minimize_multistart ~schedule ~jobs:4 ~restarts:1 ~rng:(Rng.create 7) problem in
  let direct = Anneal.minimize ~schedule ~rng:(Rng.create 7) problem in
  if single <> direct then Alcotest.fail "restarts=1 must equal plain minimize";
  (match
     Anneal.minimize_multistart ~schedule ~restarts:0 ~rng:(Rng.create 7) problem
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "restarts=0 must raise")

let test_genetic_jobs_invariant () =
  let fitness x = -.(((x.(0) -. 0.3) ** 2.0) +. ((x.(1) +. 0.8) ** 2.0)) in
  let options = { GA.default_options with GA.population = 24; generations = 12 } in
  let run jobs =
    GA.optimize_real ~options ~jobs ~rng:(Rng.create 11) ~lower:[| -2.0; -2.0 |]
      ~upper:[| 2.0; 2.0 |] ~fitness ()
  in
  let a = run 1 and b = run 3 in
  if a <> b then Alcotest.fail "GA result differs between jobs=1 and jobs=3"

let test_koan_attempts () =
  (* placement attempts run in seed order and stop at the first routed
     one: the Miller OTA midpoint at seed 23 routes on its second attempt.
     Run as pool items (inline, on either domain) the report is the same. *)
  let nl = Top.miller_ota.Tp.build tech (Tp.midpoint Top.miller_ota) in
  Mixsyn_util.Telemetry.reset ();
  let r = Mixsyn_layout.Cell_flow.koan ~seed:23 nl in
  Alcotest.(check bool) "routed" true r.Mixsyn_layout.Cell_flow.complete;
  Alcotest.(check int) "stops at the first routed attempt" 2
    (Mixsyn_util.Telemetry.counter "layout.placement_attempts");
  let as_items =
    Pool.parallel_init ~jobs:2 2 (fun _ -> Mixsyn_layout.Cell_flow.koan ~seed:23 nl)
  in
  if Array.exists (fun x -> x <> r) as_items then
    Alcotest.fail "koan report differs when run as a pool item"

(* --- branch-index hashtable -------------------------------------------- *)

let test_branch_index_table () =
  let nl = Top.miller_ota.Tp.build tech (Tp.midpoint Top.miller_ota) in
  let layout = Mixsyn_engine.Mna.layout_of nl in
  Array.iteri
    (fun i name ->
      Alcotest.(check int)
        (Printf.sprintf "branch %s" name)
        (layout.Mixsyn_engine.Mna.nets - 1 + i)
        (Mixsyn_engine.Mna.branch_index layout name))
    layout.Mixsyn_engine.Mna.branch_names;
  match Mixsyn_engine.Mna.branch_index layout "no-such-source" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown branch must raise Not_found"

let () =
  Alcotest.run "pool"
    [ ( "core",
        [ Alcotest.test_case "map matches sequential" `Quick test_map_matches_sequential;
          Alcotest.test_case "map edge cases" `Quick test_map_edge_cases;
          Alcotest.test_case "reduce in index order" `Quick test_reduce_index_order;
          Alcotest.test_case "min-index exception" `Quick test_exception_propagation;
          Alcotest.test_case "nested calls" `Quick test_nested_calls;
          Alcotest.test_case "single level" `Quick test_single_level;
          Alcotest.test_case "default-jobs override" `Quick test_default_jobs_override;
          Alcotest.test_case "jobs validation" `Quick test_jobs_validation;
          Alcotest.test_case "float results unboxed" `Quick test_float_results_unboxed_sound;
          Alcotest.test_case "sequential scope" `Quick test_sequential_scope ] );
      ( "rng",
        [ Alcotest.test_case "split_n streams" `Quick test_split_n_streams ] );
      ( "wired-loops",
        [ Alcotest.test_case "corner search" `Quick test_corner_search_jobs_invariant;
          Alcotest.test_case "anneal multistart" `Quick test_multistart_jobs_invariant;
          Alcotest.test_case "genetic fitness" `Quick test_genetic_jobs_invariant;
          Alcotest.test_case "koan attempts" `Slow test_koan_attempts ] );
      ( "mna",
        [ Alcotest.test_case "branch index table" `Quick test_branch_index_table ] ) ]
