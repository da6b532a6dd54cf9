(* isaac: ISAAC-style symbolic analysis of the 5T OTA and the Miller OTA.

   Why: symbolic expansion, evaluation and pruning do nearly all the work,
   and the 124k-term Miller expansion makes this the memory-heavy
   workload; the engine runs only two DC solves (plus the AC cross-check),
   so ISAAC work shows here and nowhere else.

   A closed loop with one caller.  Each circuit is sized at a seeded point
   of its template box whose operating point the symbolic model covers
   (no device in cutoff or reversed), as in the fixed sizings of the E9
   experiment in bench/main.ml; a pass expands the exact transfer, values its
   symbols at the operating point, and prunes and scores it at each
   threshold. *)

module Tp = Mixsyn_circuit.Template
module N = Mixsyn_circuit.Netlist
module Top = Mixsyn_circuit.Topology
module Analyze = Mixsyn_symbolic.Analyze
module Simplify = Mixsyn_symbolic.Simplify
module Rng = Mixsyn_util.Rng

let tech = Mixsyn_circuit.Tech.generic_07um
let thresholds = [ 0.001; 0.01; 0.05; 0.25 ]
let error_freqs = Mixsyn_engine.Ac.log_sweep ~decades_from:0.0 ~decades_to:9.0 ~points_per_decade:1
let check_freqs = [| 1e2; 1e5; 1e7 |]

(* the exact rational and the numeric AC solve of the same netlist must
   agree to rounding *)
let ac_tolerance = 1e-6

type circuit = {
  cname : string;
  netlist : N.t;
  out : N.net;
  exact_terms : int;  (** from the warm-up expansion at the box midpoint *)
}

type inputs = { circuits : circuit list }

type row = {
  threshold : float;
  terms_before : int;
  terms_after : int;
  coeff_error : float;
  mag_error : float;
}

type circuit_out = {
  circuit : circuit;
  terms : int;
  ac_error : float;  (** worst relative |H_exact - H_ac| over [check_freqs] *)
  symbols : int;  (** symbol lookups inside the valuation span *)
  minor_words : float;  (** allocated by the symbolic calls *)
  rows : row list;
}

type outcome = circuit_out list

let cases = [ Top.ota_5t; Top.miller_ota ]

(* The symbolic model stamps each MOS as a forward device (gm on vgs, gds
   on vds, gmb on vbs) with cgs, cgd, cdb and csb, and has no gate-bulk
   capacitance.  That is exact wherever every device conducts from drain
   to source; a device in cutoff adds the gate-bulk capacitance Ac.solve
   stamps, and a reversed one swaps the roles of its terminals. *)
let in_symbolic_model (op : Mixsyn_engine.Mna.op) =
  List.for_all
    (fun ((m : N.mos), (e : Mixsyn_engine.Mos_model.eval)) ->
      e.Mixsyn_engine.Mos_model.region <> Mixsyn_engine.Mos_model.Cutoff
      &&
      match m.N.polarity with
      | N.Nmos -> e.Mixsyn_engine.Mos_model.vds >= 0.0
      | N.Pmos -> e.Mixsyn_engine.Mos_model.vds <= 0.0)
    op.Mixsyn_engine.Mna.mos_evals

let max_draws = 500

(* a seeded in-box sizing whose operating point exists and lies in the
   symbolic model; the draw repeats from the same stream until it does *)
let seeded_netlist rng (t : Tp.t) =
  let rec draw k =
    if k = max_draws then
      failwith (Printf.sprintf "%s: no in-model sizing in %d draws" t.Tp.t_name max_draws);
    let nl = t.Tp.build tech (Tp.random_point t rng) in
    match Mixsyn_engine.Dc.solve ~tech nl with
    | op when in_symbolic_model op -> nl
    | _ -> draw (k + 1)
    | exception Mixsyn_engine.Dc.No_convergence _ -> draw (k + 1)
  in
  draw 0

let setup ~seed ~jobs:_ =
  let rng = Rng.create seed in
  let circuits =
    List.map
      (fun (t : Tp.t) ->
        let netlist = seeded_netlist rng t in
        (* warm-up: the full expansion at the box midpoint, which also
           grows the heap to the Miller expansion's working set; the term
           count is structural, so every pass must reproduce it *)
        let mid = t.Tp.build tech (Tp.midpoint t) in
        let exact = Analyze.transfer mid ~out:(N.find_net mid "out") in
        { cname = t.Tp.t_name;
          netlist;
          out = N.find_net netlist "out";
          exact_terms = Analyze.term_count exact })
      cases
  in
  { circuits }

(* symbolic calls also tally their minor-heap allocation *)
let sym_words = ref 0.0

let sym name f =
  let w0 = Gc.minor_words () in
  let r = Trace.with_span ~layer:"symbolic" name f in
  sym_words := !sym_words +. (Gc.minor_words () -. w0);
  r

let eng name f = Trace.with_span ~layer:"engine" name f

let run_circuit c =
  sym_words := 0.0;
  let nl = c.netlist in
  let r = sym "Analyze.transfer" (fun () -> Analyze.transfer nl ~out:c.out) in
  let op = eng "Dc.solve" (fun () -> Mixsyn_engine.Dc.solve ~tech nl) in
  let value =
    sym "Analyze.valuation" (fun () ->
        let v = Analyze.valuation ~tech nl op in
        List.iter (fun s -> ignore (v s)) (Analyze.symbols r);
        v)
  in
  let ac = eng "Ac.solve" (fun () -> Mixsyn_engine.Ac.solve ~tech nl op ~freqs:check_freqs) in
  let ac_error =
    Array.to_list check_freqs
    |> List.mapi (fun k f ->
           let h =
             sym "Analyze.eval_rational" (fun () ->
                 Analyze.eval_rational value r { Complex.re = 0.0; im = 2.0 *. Float.pi *. f })
           in
           let a = Mixsyn_engine.Ac.voltage ac k c.out in
           Complex.norm (Complex.sub h a) /. Float.max (Complex.norm a) 1e-300)
    |> List.fold_left Float.max 0.0
  in
  let rows =
    List.map
      (fun threshold ->
        let rep = sym "Simplify.prune" (fun () -> Simplify.prune ~value ~threshold r) in
        let mag_error =
          sym "Simplify.magnitude_error" (fun () ->
              Simplify.magnitude_error ~value ~exact:r ~approx:rep.Simplify.simplified
                ~freqs:error_freqs)
        in
        { threshold;
          terms_before = rep.Simplify.terms_before;
          terms_after = rep.Simplify.terms_after;
          coeff_error = rep.Simplify.max_coeff_error;
          mag_error })
      thresholds
  in
  { circuit = c;
    terms = Analyze.term_count r;
    ac_error;
    symbols = List.length (Analyze.symbols r);
    minor_words = !sym_words;
    rows }

let pass inp = List.map run_circuit inp.circuits

let circuit_checks o =
  [ ( o.circuit.cname ^ ".exact-matches-ac",
      Float.is_finite o.ac_error && o.ac_error <= ac_tolerance );
    (o.circuit.cname ^ ".terms-stable", o.terms = o.circuit.exact_terms) ]

let row_checks o (r : row) =
  [ ( Printf.sprintf "%s.eps%g.terms-shrink" o.circuit.cname r.threshold,
      r.terms_after <= r.terms_before && r.terms_before = o.terms ) ]

let verdict _ out =
  (* a row fails when its own check or its circuit's checks break *)
  let per_row =
    List.concat_map
      (fun o -> List.map (fun r -> circuit_checks o @ row_checks o r) o.rows)
      out
  in
  let broken =
    List.sort_uniq compare
      (List.concat_map (List.filter_map (fun (n, ok) -> if ok then None else Some n)) per_row)
  in
  { Wl.attempted = List.length per_row;
    failed = List.length (List.filter (List.exists (fun (_, ok) -> not ok)) per_row);
    broken;
    digest =
      Util.digest_of_strings
        (List.concat_map
           (fun o ->
             Printf.sprintf "%s terms=%d" o.circuit.cname o.terms
             :: List.map
                  (fun r ->
                    Printf.sprintf "eps=%g after=%d coeff=%s mag=%s" r.threshold r.terms_after
                      (Util.sig6 r.coeff_error) (Util.sig6 r.mag_error))
                  o.rows)
           out) }

let report _ ~walls:_ outs =
  let out = match outs with [] -> [] | o :: _ -> o in
  let rows = List.concat_map (fun o -> o.rows) out in
  let violations = List.filter (fun r -> r.coeff_error > r.threshold) rows in
  [ Wl.metric "prune_bound_violations" "count"
      ~note:(Printf.sprintf "(circuit, eps) rows with max coefficient error > eps, of %d"
               (List.length rows))
      (float_of_int (List.length violations)) ]

let layers _ out (t : Wl.traced) =
  let s = Wl.bench_seconds t in
  let sum f = List.fold_left (fun acc o -> acc +. f o) 0.0 out in
  let lookups = sum (fun o -> float_of_int o.symbols) in
  let dc_us = List.map (fun v -> 1e6 *. v) (Wl.bench_durations t "Dc.solve") in
  let n_dc = List.length dc_us in
  let note = Printf.sprintf "%d calls in the traced pass" n_dc in
  ( [ Wl.metric "engine.dc.solve_us.p50" "us" ~note (Util.median dc_us);
      Wl.metric "engine.dc.solve_us.p99" "us" ~note (Util.quantile 0.99 dc_us);
      Wl.metric "engine.ac.sweep_us" "us"
        ~note:(Printf.sprintf "%d frequencies per sweep" (Array.length check_freqs))
        (1e6 *. Util.mean (Wl.bench_durations t "Ac.solve"));
      Wl.metric "symbolic.transfer_s" "s" (s "Analyze.transfer");
      Wl.metric "symbolic.terms" "count"
        (float_of_int (List.fold_left (fun acc o -> acc + o.terms) 0 out));
      Wl.metric "symbolic.valuation_us" "us"
        ~note:(Printf.sprintf "per symbol, %.0f lookups" lookups)
        (1e6 *. Util.ratio (s "Analyze.valuation") lookups);
      Wl.metric "symbolic.prune_s" "s" (s "Simplify.prune");
      Wl.metric "symbolic.magnitude_error_s" "s" (s "Simplify.magnitude_error");
      Wl.metric "symbolic.minor_mwords" "Mwords" (1e-6 *. sum (fun o -> o.minor_words)) ],
    Wl.layer_self_times t )
