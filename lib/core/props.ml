module E = Qgm.Expr
module B = Qgm.Box
module G = Qgm.Graph

let rec column_nullable cat g box_id col =
  let box = G.box g box_id in
  match box.B.body with
  | B.Base { bt_table; _ } -> Catalog.column_nullable cat bt_table col
  | B.Select { sel_quants = quants; sel_outs = outs; _ } -> (
      match List.assoc_opt col outs with
      | None -> true
      | Some e -> expr_nullable cat g quants e)
  | B.Union u ->
      (* nullable when nullable in any branch, aligned positionally *)
      let idx = List.find_index (String.equal col) u.B.un_cols in
      (match idx with
      | None -> true
      | Some i ->
          List.exists
            (fun q ->
              let child_cols = B.output_cols (G.box g q.B.q_box) in
              i >= List.length child_cols
              || column_nullable cat g q.B.q_box (List.nth child_cols i))
            u.B.un_quants)
  | B.Group { grp_quant = quant; grp_grouping = grouping; grp_aggs = aggs } -> (
      let union = B.grouping_union grouping in
      if List.mem col union then
        (* NULL-padded in cuboids that exclude the column (section 5) *)
        let in_every_set =
          List.for_all (List.mem col) (B.grouping_sets grouping)
        in
        (not in_every_set)
        || column_nullable cat g quant.B.q_box col
      else
        match List.assoc_opt col aggs with
        | Some { B.agg = { E.fn = E.Count | E.Count_star; _ }; _ } -> false
        | Some _ -> true (* SUM/MIN/MAX/AVG of all-NULL group is NULL *)
        | None -> true)

and expr_nullable cat g quants e =
  match e with
  | E.Const v -> v = Data.Value.Null
  | E.Col { B.quant; col } -> (
      match List.find_opt (fun q -> q.B.q_id = quant) quants with
      | None -> true
      | Some q ->
          (* a scalar subquery returning no rows yields NULL *)
          q.B.q_kind = B.Scalar || column_nullable cat g q.B.q_box col)
  | E.Unop (_, e) -> expr_nullable cat g quants e
  | E.Binop (("AND" | "OR"), a, b) ->
      expr_nullable cat g quants a || expr_nullable cat g quants b
  | E.Binop (_, a, b) ->
      expr_nullable cat g quants a || expr_nullable cat g quants b
  | E.Fncall ("coalesce", args) ->
      List.for_all (expr_nullable cat g quants) args
  | E.Fncall (_, args) -> List.exists (expr_nullable cat g quants) args
  | E.Agg _ -> true
  | E.Is_null _ -> false
  | E.Case (arms, els) -> (
      List.exists (fun (_, v) -> expr_nullable cat g quants v) arms
      || match els with None -> true | Some e -> expr_nullable cat g quants e)

let base_table_of g box_id =
  match (G.box g box_id).B.body with
  | B.Base { bt_table; _ } -> Some bt_table
  | _ -> None

let cols_are_key cat g box_id cols =
  let box = G.box g box_id in
  match box.B.body with
  | B.Base { bt_table; _ } -> Catalog.is_unique_key cat bt_table cols
  | B.Group { grp_grouping = B.Simple keys; _ } ->
      List.for_all (fun k -> List.mem k cols) keys
  | B.Group _ | B.Select _ | B.Union _ -> false
