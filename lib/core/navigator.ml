type site = {
  site_box : Qgm.Box.box_id;
  site_result : Mtypes.result;
  site_proof : Prove.status;
}

let nav_runs = Obs.Metrics.counter "navigator.runs"
let nav_sites = Obs.Metrics.counter "navigator.sites"
let nav_ms = Obs.Metrics.histogram "navigator.ms"

(* Since derivation of output columns is lazy (section 6), an interior
   match may legitimately cover only part of a box's outputs — but a match
   that is to REPLACE a box must reproduce every output column. *)
let covers_outputs g e_id (res : Mtypes.result) =
  let wanted = Qgm.Box.output_cols (Qgm.Graph.box g e_id) in
  let produced =
    match res with
    | Mtypes.Exact cmap -> List.map fst cmap
    | Mtypes.Comp [] -> []
    | Mtypes.Comp levels ->
        Mtypes.level_outs (List.nth levels (List.length levels - 1))
  in
  List.for_all (fun c -> List.mem c produced) wanted

let find_matches ?trace ?budget ?config cat ~query ~ast =
  Guard.Fault.hit Guard.Fault.Navigate;
  Obs.Metrics.incr nav_runs;
  Obs.Metrics.time nav_ms (fun () ->
      Obs.Trace.with_span trace ~kind:"navigate" ~label:"bottom-up over query boxes"
        (fun () ->
          let ctx = Mctx.create ?trace ?budget ?config cat ~query ~ast in
          let r_root = Qgm.Graph.root ast in
          let boxes = Qgm.Graph.reachable query (Qgm.Graph.root query) in
          let sites =
            List.filter_map
              (fun e_id ->
                match Patterns.match_boxes ctx e_id r_root with
                | Some (res, proof) when covers_outputs query e_id res ->
                    Obs.Trace.accept trace ~kind:"site"
                      ~label:(Printf.sprintf "query box %d" e_id)
                      (match res with
                      | Mtypes.Exact _ -> "exact"
                      | Mtypes.Comp _ -> "compensated");
                    Some { site_box = e_id; site_result = res; site_proof = proof }
                | Some _ ->
                    (* an interior match exists but can't replace the box *)
                    Obs.Trace.reject trace ~kind:"site"
                      ~label:(Printf.sprintf "query box %d" e_id)
                      Obs.Trace.Outputs_not_covered;
                    None
                | None -> None)
              boxes
          in
          Obs.Metrics.add nav_sites (List.length sites);
          sites))

let matches cat ~query ~ast = find_matches cat ~query ~ast <> []
