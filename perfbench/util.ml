(* Clocks, order statistics and host facts shared by every workload. *)

(* Durations come from the monotonic clock, never from the wall clock
   (Unix.gettimeofday jumps when the system time is adjusted). *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Process user+sys CPU over every domain; Unix.times reads getrusage, so
   worker domains are included. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- order statistics ------------------------------------------------- *)

let sorted xs = Array.of_list (List.sort Float.compare xs)

(* linear interpolation between closest ranks, as numpy's default *)
let quantile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

let mean xs =
  match xs with [] -> nan | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* The highest order statistic with at least ten samples beyond it, with
   the percentile it sits at; below eleven samples there is no such rank
   and the maximum is returned at its own percentile. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, 0.0)
  else
    let k = if n >= 11 then n - 11 else n - 1 in
    (a.(k), 100.0 *. float_of_int (k + 1) /. float_of_int n)

let ratio num den = if den = 0.0 then 0.0 else num /. den

(* ---- host ------------------------------------------------------------- *)

(* Peak resident set of this process, from the kernel's high-water mark. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
      in
      scan ())

(* Every environment variable that steers the scheduler, recorded with
   each result so two runs can be compared like for like. *)
let scheduler_env () =
  Array.to_list (Unix.environment ())
  |> List.filter (fun kv ->
         List.exists
           (fun prefix -> String.starts_with ~prefix kv)
           [ "MIXSYN_POOL_"; "MIXSYN_JOBS="; "MIXSYN_MINOR_HEAP=" ])
  |> List.sort compare

(* ---- digests ---------------------------------------------------------- *)

let digest_of_strings parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

(* floats rounded to a fixed number of significant digits, so a digest
   tracks results rather than the last bits of their arithmetic *)
let sig6 v = Printf.sprintf "%.6g" v

(* ---- output ------------------------------------------------------------ *)

(* Journals, spans and result files go here, inside the checkout. *)
let out_dir () =
  let dir = Filename.concat "perfbench" "out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  dir

(* CPU seconds of every thread of this process (one per domain, plus the
   pool's), keyed by thread id, from /proc at the kernel's 100 ticks/s. *)
let thread_cpu () =
  let dir = "/proc/self/task" in
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun tid ->
         match open_in (Filename.concat (Filename.concat dir tid) "stat") with
         | exception Sys_error _ -> None
         | ic ->
           let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
           let after = String.rindex line ')' in
           let fields =
             String.split_on_char ' ' (String.sub line (after + 2) (String.length line - after - 2))
           in
           (* fields.(0) is field 3 (state); utime and stime are 14 and 15 *)
           let f k = float_of_string (List.nth fields (k - 3)) in
           Some (int_of_string tid, (f 14 +. f 15) /. 100.0))
  |> List.sort compare
