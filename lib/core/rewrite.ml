module E = Qgm.Expr
module B = Qgm.Box
module G = Qgm.Graph
module M = Mtypes

type mv = { mv_name : string; mv_graph : G.t; mv_version : int }
type step = {
  used_mv : string;
  target : B.box_id;
  exact : bool;
  proved : Prove.status;
}

(* A plan is statically certified only when every applied step is. *)
let steps_proof steps =
  Prove.all_proved (List.map (fun s -> s.proved) steps)


(* Build one SELECT body from an L_select level sitting on [below]. *)
let build_select g ~below ~(level_rejoins : M.rejoin_child list) ~preds ~outs =
  let g, qb = G.fresh_quant g below B.Foreach in
  let g, rejoin_quants =
    List.fold_left
      (fun (g, acc) (rc : M.rejoin_child) ->
        let orig = rc.M.rc_quant in
        let g, q = G.fresh_quant g orig.B.q_box orig.B.q_kind in
        (g, acc @ [ (orig.B.q_id, q) ]))
      (g, []) level_rejoins
  in
  let map_ref c =
    match c with
    | M.Below col -> { B.quant = qb.B.q_id; col }
    | M.Rejoin { B.quant; col } -> (
        match List.assoc_opt quant rejoin_quants with
        | Some q -> { B.quant = q.B.q_id; col }
        | None ->
            invalid_arg
              (Printf.sprintf "Rewrite: unbound rejoin quantifier %d" quant))
  in
  let body =
    B.Select
      {
        sel_quants = (qb :: List.map snd rejoin_quants);
        sel_preds = List.map (E.map_col map_ref) preds;
        sel_outs = List.map (fun (n, e) -> (n, E.map_col map_ref e)) outs;
      }
  in
  (g, body)

(* Build a GROUP BY from an L_group level; when an aggregate argument is not
   a plain column of [below], interpose a SELECT computing it. *)
let build_group g ~below ~below_cols ~grouping ~(aggs : (string * E.agg * M.cref E.t option) list) =
  let plain =
    List.for_all
      (fun (_, _, arg) ->
        match arg with
        | None | Some (E.Col (M.Below _)) -> true
        | Some _ -> false)
      aggs
  in
  let g, child, col_of_arg =
    if plain then
      ( g,
        below,
        fun arg ->
          match arg with
          | None -> None
          | Some (E.Col (M.Below c)) -> Some c
          | Some _ -> assert false )
    else begin
      (* interpose a SELECT: pass all below columns through, compute complex
         arguments under fresh names *)
      let g, qb = G.fresh_quant g below B.Foreach in
      let pass =
        List.map
          (fun c -> (c, E.Col { B.quant = qb.B.q_id; col = c }))
          below_cols
      in
      let complex = ref [] in
      let col_of arg =
        match arg with
        | None -> None
        | Some (E.Col (M.Below c)) -> Some c
        | Some e -> (
            match List.find_opt (fun (_, e') -> e' = e) !complex with
            | Some (n, _) -> Some n
            | None ->
                let n = Printf.sprintf "arg_c%d" (List.length !complex + 1) in
                complex := !complex @ [ (n, e) ];
                Some n)
      in
      (* force evaluation of all arguments to populate [complex] *)
      let resolved = List.map (fun (_, _, arg) -> col_of arg) aggs in
      ignore resolved;
      let to_qref e =
        E.map_col
          (fun c ->
            match c with
            | M.Below col -> { B.quant = qb.B.q_id; col }
            | M.Rejoin _ ->
                invalid_arg "Rewrite: rejoin reference in aggregate argument")
          e
      in
      let outs = pass @ List.map (fun (n, e) -> (n, to_qref e)) !complex in
      let g, sel_id =
        G.add_box g
          (B.Select
             { sel_quants = [ qb ]; sel_preds = []; sel_outs = outs })
      in
      (g, sel_id, col_of)
    end
  in
  let g, gq = G.fresh_quant g child B.Foreach in
  let body =
    B.Group
      {
        grp_quant = gq;
        grp_grouping = grouping;
        grp_aggs =
          List.map
            (fun (n, agg, arg) -> (n, { B.agg; arg = col_of_arg arg }))
            aggs;
      }
  in
  (g, body)

let apply ~query ~target ~result ~mv_table ~mv_cols =
  Guard.Fault.hit Guard.Fault.Compensate;
  let g, mv_box =
    G.add_box query (B.Base { bt_table = mv_table; bt_cols = mv_cols })
  in
  let levels =
    match result with
    | M.Exact cmap ->
        [
          M.L_select
            {
              ls_rejoins = [];
              ls_preds = [];
              ls_outs = List.map (fun (n, m) -> (n, E.Col (M.Below m))) cmap;
            };
        ]
    | M.Comp levels -> levels
  in
  let rec install g below below_cols = function
    | [] -> invalid_arg "Rewrite.apply: empty compensation"
    | [ last ] ->
        (* the top level takes over the subsumee's box id *)
        let g, body =
          match last with
          | M.L_select { ls_rejoins; ls_preds; ls_outs } ->
              build_select g ~below ~level_rejoins:ls_rejoins ~preds:ls_preds
                ~outs:ls_outs
          | M.L_group { lg_grouping; lg_aggs } ->
              build_group g ~below ~below_cols ~grouping:lg_grouping
                ~aggs:lg_aggs
        in
        G.update_box g target body
    | level :: rest ->
        let g, body =
          match level with
          | M.L_select { ls_rejoins; ls_preds; ls_outs } ->
              build_select g ~below ~level_rejoins:ls_rejoins ~preds:ls_preds
                ~outs:ls_outs
          | M.L_group { lg_grouping; lg_aggs } ->
              build_group g ~below ~below_cols ~grouping:lg_grouping
                ~aggs:lg_aggs
        in
        let g, id = G.add_box g body in
        install g id (B.output_cols (G.box g id)) rest
  in
  install g mv_box mv_cols levels

(* ------------------------------------------------------------------ *)
(* Cost-based routing                                                  *)
(* ------------------------------------------------------------------ *)


(* With [on_error], a failure while judging one summary table (navigator,
   match function, compensation construction, translation — anything up to
   and including building the candidate graph) is reported and that summary
   table contributes no candidates, instead of the exception voiding the
   whole planning; the remaining summary tables are still tried. Without
   it, exceptions propagate (the historical behaviour, kept for direct
   callers and tests). *)
let guarded on_error mv_name fallback f =
  match on_error with
  | None -> f ()
  | Some h -> (
      match f () with
      | v -> v
      | exception ((Sys.Break | Guard.Error.Fatal _
                   | Govern.Budget.Budget_exhausted _) as e) ->
          raise e
      | exception ((Out_of_memory | Stack_overflow) as e) ->
          raise
            (Guard.Error.Fatal
               (Guard.Error.classify ~stage:Guard.Error.Match ~mv:mv_name e))
      | exception e ->
          h mv_name e;
          fallback)

let rw_candidates = Obs.Metrics.counter "rewrite.candidates"
let rw_steps = Obs.Metrics.counter "rewrite.steps"
let rw_route_ms = Obs.Metrics.histogram "rewrite.route_ms"

let rewrite_candidates ?on_error ?trace ?budget cat g mvs =
  List.concat_map
    (fun mv ->
      Obs.Trace.with_span trace ~kind:"candidate" ~label:mv.mv_name
        ~result:(fun cands ->
          if cands = [] then Obs.Trace.Step
          else
            Obs.Trace.Accepted
              (Printf.sprintf "%d site(s)" (List.length cands)))
        (fun () ->
          guarded on_error mv.mv_name [] (fun () ->
              let sites =
                Navigator.find_matches ?trace ?budget cat ~query:g
                  ~ast:mv.mv_graph
              in
              List.map
                (fun { Navigator.site_box; site_result; site_proof } ->
                  Govern.Budget.tick_candidate budget;
                  let mv_cols =
                    B.output_cols (G.box mv.mv_graph (G.root mv.mv_graph))
                  in
                  let g' =
                    Obs.Trace.with_span trace ~kind:"compensate"
                      ~label:(Printf.sprintf "query box %d" site_box)
                      (fun () ->
                        apply ~query:g ~target:site_box ~result:site_result
                          ~mv_table:mv.mv_name ~mv_cols)
                  in
                  ( g',
                    {
                      used_mv = mv.mv_name;
                      target = site_box;
                      exact =
                        (match site_result with
                        | M.Exact _ -> true
                        | M.Comp _ -> false);
                      proved = site_proof;
                    } ))
                sites)))
    mvs

let best ~cat ?on_error ?trace ?budget g mvs =
  (* Iterative multi-AST routing (section 7): keep applying the cheapest
     strictly-improving rewrite. The same AST may serve several query
     blocks (e.g. two FROM subqueries); termination is guaranteed because
     every accepted step strictly lowers the estimated cost.

     Budget exhaustion is caught at round granularity: the routing state
     reached so far is already a correct (if possibly improvable) rewrite,
     so the best-so-far graph is returned — graceful degradation, never an
     error. The reason stays recorded on the budget for the planner. *)
  Obs.Metrics.time rw_route_ms (fun () ->
      let round g =
        let candidates = rewrite_candidates ?on_error ?trace ?budget cat g mvs in
        Obs.Metrics.add rw_candidates (List.length candidates);
        let current = Cost.graph_cost cat g in
        let better =
          List.filter_map
            (fun (g', step) ->
              guarded on_error step.used_mv None (fun () ->
                  let c = Cost.graph_cost cat g' in
                  if c < current then Some (c, g', step)
                  else begin
                    Obs.Trace.reject trace ~kind:"cost" ~label:step.used_mv
                      (Obs.Trace.Cost_not_better (c, current));
                    None
                  end))
            candidates
        in
        (current, List.sort (fun (a, _, _) (b, _, _) -> compare a b) better)
      in
      let rec loop g steps fuel =
        let finish () = if steps = [] then None else Some (g, List.rev steps) in
        if fuel = 0 then Some (g, List.rev steps)
        else
          match round g with
          | exception Govern.Budget.Budget_exhausted _ -> finish ()
          | _, [] -> finish ()
          | current, (c, g', step) :: _ ->
              Obs.Metrics.incr rw_steps;
              Obs.Trace.accept trace ~kind:"route" ~label:step.used_mv
                (Printf.sprintf "query box %d, cost %.0f -> %.0f" step.target
                   current c);
              loop g' (step :: steps) (fuel - 1)
      in
      loop g [] 16)
