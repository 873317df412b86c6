module E = Qgm.Expr
module B = Qgm.Box
module M = Mtypes

let tr_calls = Obs.Metrics.counter "translate.calls"

let through_comp levels e =
  Guard.Fault.hit Guard.Fault.Translate;
  Obs.Metrics.incr tr_calls;
  (* Walk from the top level down, substituting Below references with the
     level's defining expression; Rejoin references pass through. *)
  let subst_level level e =
    E.subst_col
      (fun c ->
        match c with
        | M.Rejoin _ -> Some (E.Col c)
        | M.Below col -> M.level_out_expr level col)
      e
  in
  List.fold_right
    (fun level acc -> Option.bind acc (subst_level level))
    levels (Some e)

let child_col result col =
  match result with
  | M.Exact cmap ->
      Option.map (fun r_col -> E.Col (M.Below r_col)) (List.assoc_opt col cmap)
  | M.Comp levels -> through_comp levels (E.Col (M.Below col))

let lift_cref ~rq e =
  E.map_col
    (fun c ->
      match c with
      | M.Below col -> M.Rin { B.quant = rq.B.q_id; col }
      | M.Rejoin r -> M.Rj r)
    e

let to_subsumer (asg : Mctx.assignment) e =
  E.subst_col
    (fun ({ B.quant; col } as qref) ->
      if List.exists (fun q -> q.B.q_id = quant) asg.Mctx.rejoins then
        Some (E.Col (M.Rj qref))
      else
        match
          List.find_opt (fun (qe, _, _) -> qe.B.q_id = quant) asg.Mctx.pairs
        with
        | None -> None
        | Some (_, rq, (result, _)) ->
            Option.map (lift_cref ~rq) (child_col result col))
    e
