module A = Sqlsyn.Ast
module E = Expr
module B = Box

(* Naming: each foreach quantifier of a block gets a FROM binding; base
   tables keep their name when it is unambiguous within the block,
   otherwise (and for subqueries) a synthetic alias [t<box>_<quant>]. *)

let rec to_query_of_box g id : A.query =
  let box = Graph.box g id in
  match box.B.body with
  | B.Base { bt_table; _ } ->
      {
        A.empty_query with
        A.select_star = true;
        from = [ A.From_table (bt_table, None) ];
      }
  | B.Group _ -> group_query g id None
  | B.Union u ->
      let branches = List.map (fun q -> to_query_of_box g q.B.q_box) u.B.un_quants in
      (match branches with
      | first :: rest ->
          {
            first with
            A.unions = first.A.unions @ List.map (fun q -> (true, q)) rest;
          }
      | [] -> A.empty_query)
  | B.Select sel -> (
      (* merge a SELECT over a single GROUP BY child *)
      match sel.B.sel_quants with
      | [ q ]
        when q.B.q_kind = B.Foreach
             && B.is_group (Graph.box g q.B.q_box) ->
          group_query g q.B.q_box (Some (sel, q))
      | _ -> select_query g sel)

and select_query g (sel : B.select_body) : A.query =
  let foreach =
    List.filter (fun q -> q.B.q_kind = B.Foreach) sel.B.sel_quants
  in
  let base_name q =
    match (Graph.box g q.B.q_box).B.body with
    | B.Base { bt_table; _ } -> Some bt_table
    | _ -> None
  in
  (* choose binding names *)
  let names =
    List.map
      (fun q ->
        match base_name q with
        | Some t
          when List.length
                 (List.filter
                    (fun q' ->
                      match base_name q' with
                      | Some t' -> t' = t
                      | None -> false)
                    foreach)
               = 1 ->
            (q.B.q_id, t, `Table t)
        | Some t ->
            let alias = Printf.sprintf "%s_q%d" (String.lowercase_ascii t) q.B.q_id in
            (q.B.q_id, alias, `Aliased t)
        | None -> (q.B.q_id, Printf.sprintf "t%d" q.B.q_box, `Sub))
      foreach
  in
  let from =
    List.map2
      (fun q (_, name, kind) ->
        match kind with
        | `Table t -> A.From_table (t, None)
        | `Aliased t -> A.From_table (t, Some name)
        | `Sub -> A.From_sub (to_query_of_box g q.B.q_box, name))
      foreach names
  in
  let conv = conv_expr g sel.B.sel_quants names in
  let where =
    match List.map conv sel.B.sel_preds with
    | [] -> None
    | first :: rest ->
        Some (List.fold_left (fun acc p -> A.Binop ("AND", acc, p)) first rest)
  in
  {
    A.empty_query with
    select =
      List.map
        (fun (n, e) -> { A.item_expr = conv e; item_alias = Some n })
        sel.B.sel_outs;
    from;
    where;
  }

(* A GROUP BY box, optionally merged with the SELECT box above it. The
   grouping/aggregation expressions are inlined from the child select when
   the child is a SELECT box; otherwise the child becomes a subquery. *)
and group_query g id upper : A.query =
  let grp =
    match (Graph.box g id).B.body with B.Group grp -> grp | _ -> assert false
  in
  let child_id = grp.B.grp_quant.B.q_box in
  let child_box = Graph.box g child_id in
  let base, col_expr =
    match child_box.B.body with
    | B.Select csel ->
        let q = select_query g csel in
        let lookup c =
          List.find_map
            (fun { A.item_expr; item_alias } ->
              match item_alias with
              | Some a when a = c -> Some item_expr
              | _ -> None)
            q.A.select
        in
        (q, lookup)
    | _ ->
        let sub = to_query_of_box g child_id in
        let alias = Printf.sprintf "t%d" child_id in
        ( {
            A.empty_query with
            A.select_star = true;
            from = [ A.From_sub (sub, alias) ];
          },
          fun c -> Some (A.Ref (Some alias, c)) )
  in
  let col_expr c =
    match col_expr c with Some e -> e | None -> A.Ref (None, c)
  in
  let group_by =
    match grp.B.grp_grouping with
    | B.Simple cols -> List.map (fun c -> A.G_expr (col_expr c)) cols
    | B.Gsets sets -> [ A.G_sets (List.map (List.map col_expr) sets) ]
  in
  let agg_expr { B.agg; arg } =
    let name =
      match agg.E.fn with
      | E.Count_star | E.Count -> A.Count
      | E.Sum -> A.Sum
      | E.Avg -> A.Avg
      | E.Min -> A.Min
      | E.Max -> A.Max
    in
    A.Agg (name, agg.E.distinct, Option.map col_expr arg)
  in
  let group_outs =
    List.map
      (fun c -> (c, col_expr c))
      (B.grouping_union grp.B.grp_grouping)
    @ List.map (fun (n, app) -> (n, agg_expr app)) grp.B.grp_aggs
  in
  let lookup_group_col c =
    match List.assoc_opt c group_outs with
    | Some e -> e
    | None -> A.Ref (None, c)
  in
  match upper with
  | None ->
      {
        base with
        A.select =
          List.map
            (fun (n, e) -> { A.item_expr = e; item_alias = Some n })
            group_outs;
        select_star = false;
        group_by;
      }
  | Some (usel, uq) ->
      let rec conv e =
        match e with
        | E.Const v -> A.Lit v
        | E.Col { B.quant; col } when quant = uq.B.q_id -> lookup_group_col col
        | E.Col { B.col; _ } -> A.Ref (None, col)
        | E.Unop (op, e) -> A.Unop (op, conv e)
        | E.Binop (op, a, b) -> A.Binop (op, conv a, conv b)
        | E.Fncall (f, args) -> A.Fncall (f, List.map conv args)
        | E.Agg _ -> A.Ref (None, "_agg_")
        | E.Is_null (e, pos) -> A.Is_null (conv e, pos)
        | E.Case (arms, els) ->
            A.Case
              ( List.map (fun (c, v) -> (conv c, conv v)) arms,
                Option.map conv els )
      in
      let having =
        match List.map conv usel.B.sel_preds with
        | [] -> None
        | first :: rest ->
            Some
              (List.fold_left (fun acc p -> A.Binop ("AND", acc, p)) first rest)
      in
      {
        base with
        A.select =
          List.map
            (fun (n, e) -> { A.item_expr = conv e; item_alias = Some n })
            usel.B.sel_outs;
        select_star = false;
        group_by;
        having;
      }

(* Expression conversion within a plain SELECT block: quantifier references
   become (possibly qualified) column refs; scalar quantifiers are
   re-inlined as scalar subqueries. *)
and conv_expr g quants names e =
  let qualifier qid =
    match List.find_opt (fun (q, _, _) -> q = qid) names with
    | Some (_, name, `Table t) ->
        ignore t;
        Some name
    | Some (_, name, _) -> Some name
    | None -> None
  in
  let rec conv e =
    match e with
    | E.Const v -> A.Lit v
    | E.Col { B.quant; col } -> (
        match List.find_opt (fun q -> q.B.q_id = quant) quants with
        | Some q when q.B.q_kind = B.Scalar ->
            A.Scalar_sub (to_query_of_box g q.B.q_box)
        | _ -> A.Ref (qualifier quant, col))
    | E.Unop (op, e) -> A.Unop (op, conv e)
    | E.Binop (op, a, b) -> A.Binop (op, conv a, conv b)
    | E.Fncall (f, args) -> A.Fncall (f, List.map conv args)
    | E.Agg (agg, arg) ->
        let name =
          match agg.E.fn with
          | E.Count_star | E.Count -> A.Count
          | E.Sum -> A.Sum
          | E.Avg -> A.Avg
          | E.Min -> A.Min
          | E.Max -> A.Max
        in
        A.Agg (name, agg.E.distinct, Option.map conv arg)
    | E.Is_null (e, pos) -> A.Is_null (conv e, pos)
    | E.Case (arms, els) ->
        A.Case
          (List.map (fun (c, v) -> (conv c, conv v)) arms, Option.map conv els)
  in
  conv e

let to_query g =
  let q = to_query_of_box g (Graph.root g) in
  let { Graph.order_by; limit } = Graph.presentation g in
  {
    q with
    A.order_by = List.map (fun (c, asc) -> (A.Ref (None, c), asc)) order_by;
    limit;
  }

let to_sql g = Sqlsyn.Pretty.query_to_string (to_query g)
