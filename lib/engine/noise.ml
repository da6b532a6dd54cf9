module Netlist = Mixsyn_circuit.Netlist
module Fmat = Mixsyn_util.Fmat

type contribution = {
  source_name : string;
  kind : [ `Thermal | `Flicker ];
  psd : float;
}

type point = {
  freq : float;
  total_psd : float;
  contributions : contribution list;
}

type result = {
  points : point array;
  integrated_rms : float;
}

let integrate series =
  let acc = ref 0.0 in
  for i = 1 to Array.length series - 1 do
    let f0, p0 = series.(i - 1) and f1, p1 = series.(i) in
    acc := !acc +. (0.5 *. (p0 +. p1) *. (f1 -. f0))
  done;
  !acc

let analyze ?(tech = Mixsyn_circuit.Tech.generic_07um) nl op ~out ~freqs =
  let g, c, _b = Ac.build_system tech nl op in
  let n = Array.length g in
  let out_index = Mna.node_index out in
  assert (out_index >= 0);
  (* flatten G and C once; every frequency point reloads the transposed
     (adjoint) system into this domain's pooled workspace in place *)
  let gf = Fmat.flatten g and cf = Fmat.flatten c in
  (* enumerate noise current sources: (name, kind, node a, node b, psd fn) *)
  let resistor_sources =
    List.filter_map
      (function
        | Netlist.Resistor { r_name; a; b; ohms } ->
          let psd _f = 4.0 *. Mixsyn_util.Units.boltzmann *. tech.Mixsyn_circuit.Tech.temp /. ohms in
          Some (r_name, `Thermal, a, b, psd)
        | Netlist.Mos _ | Netlist.Capacitor _ | Netlist.Vsource _
        | Netlist.Isource _ | Netlist.Vccs _ -> None)
      (Netlist.elements nl)
  in
  let mos_sources =
    List.concat_map
      (fun (m, (e : Mos_model.eval)) ->
        let gm = Float.abs e.Mos_model.gm in
        let thermal _f = Mos_model.thermal_noise_psd tech ~gm in
        let flicker f = Mos_model.flicker_noise_psd tech m ~gm ~freq:f in
        [ (m.Netlist.m_name, `Thermal, m.Netlist.drain, m.Netlist.source, thermal);
          (m.Netlist.m_name, `Flicker, m.Netlist.drain, m.Netlist.source, flicker) ])
      op.Mna.mos_evals
  in
  let sources = resistor_sources @ mos_sources in
  (* adjoint system: A^T y = e_out; transfer from an injection (a,b) to
     v_out is y_a - y_b.  [y] is the sweep's scratch solution vector —
     every point's contributions are folded out of it before the next
     point's solve overwrites it. *)
  let point_of y freq =
    let transfer a b =
      let ya = if a = Netlist.gnd then Complex.zero else y.(Mna.node_index a) in
      let yb = if b = Netlist.gnd then Complex.zero else y.(Mna.node_index b) in
      Complex.norm (Complex.sub ya yb)
    in
    let contributions =
      List.map
        (fun (source_name, kind, a, b, psd_fn) ->
          let h = transfer a b in
          { source_name; kind; psd = h *. h *. psd_fn freq })
        sources
    in
    let total_psd = List.fold_left (fun acc cntr -> acc +. cntr.psd) 0.0 contributions in
    { freq; total_psd; contributions }
  in
  (* one adjoint solve per frequency against the shared read-only flat
     (g, c), all in one pooled workspace and one scratch vector, results
     in frequency order *)
  let points =
    let y = Array.make n Complex.zero in
    Fmat.with_cplx n (fun ws ->
        Array.map
          (fun freq ->
            Fmat.Cplx.load_ac_transposed ws ~g:gf ~c:cf ~omega:(2.0 *. Float.pi *. freq);
            Fmat.Cplx.unit_rhs ws out_index;
            Fmat.Cplx.factor ws;
            Fmat.Cplx.solve ws y;
            point_of y freq)
          freqs)
  in
  let series = Array.map (fun p -> (p.freq, p.total_psd)) points in
  { points; integrated_rms = sqrt (integrate series) }
