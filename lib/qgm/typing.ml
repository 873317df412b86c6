module E = Expr
module B = Box
module V = Data.Value

let rec col_type cat g box_id col =
  let box = Graph.box g box_id in
  match box.B.body with
  | B.Base { bt_table; _ } -> (
      match Catalog.find_table cat bt_table with
      | None -> V.Tstr
      | Some tbl -> (
          match Catalog.find_column tbl col with
          | Some c -> c.Catalog.col_ty
          | None -> V.Tstr))
  | B.Select sel -> (
      match List.assoc_opt col sel.B.sel_outs with
      | Some e -> expr_type cat g sel.B.sel_quants e
      | None -> V.Tstr)
  | B.Union u -> (
      match u.B.un_quants with
      | q :: _ ->
          let child_cols = B.output_cols (Graph.box g q.B.q_box) in
          let idx = List.find_index (String.equal col) u.B.un_cols in
          (match idx with
          | Some i when i < List.length child_cols ->
              col_type cat g q.B.q_box (List.nth child_cols i)
          | _ -> V.Tstr)
      | [] -> V.Tstr)
  | B.Group grp ->
      let child = grp.B.grp_quant.B.q_box in
      if List.mem col (B.grouping_union grp.B.grp_grouping)
      then col_type cat g child col
      else (
        match List.assoc_opt col grp.B.grp_aggs with
        | Some { B.agg; arg } -> (
            match agg.E.fn with
            | E.Count_star | E.Count -> V.Tint
            | E.Avg -> V.Tfloat
            | E.Sum | E.Min | E.Max -> (
                match arg with
                | Some a -> col_type cat g child a
                | None -> V.Tint))
        | None -> V.Tstr)

and expr_type cat g quants e =
  let of_col { B.quant; col } =
    match List.find_opt (fun q -> q.B.q_id = quant) quants with
    | Some q -> col_type cat g q.B.q_box col
    | None -> V.Tstr
  in
  match e with
  | E.Const (V.Int _) -> V.Tint
  | E.Const (V.Float _) -> V.Tfloat
  | E.Const (V.Str _) -> V.Tstr
  | E.Const (V.Bool _) -> V.Tbool
  | E.Const (V.Date _) -> V.Tdate
  | E.Const V.Null -> V.Tstr
  | E.Col c -> of_col c
  | E.Unop ("NOT", _) -> V.Tbool
  | E.Unop (_, e) -> expr_type cat g quants e
  | E.Binop (("AND" | "OR" | "=" | "<>" | "<" | "<=" | ">" | ">="), _, _) ->
      V.Tbool
  | E.Binop ("||", _, _) -> V.Tstr
  | E.Binop ("/", a, b) | E.Binop ("*", a, b) | E.Binop ("+", a, b)
  | E.Binop ("-", a, b) -> (
      match (expr_type cat g quants a, expr_type cat g quants b) with
      | V.Tint, V.Tint -> V.Tint
      | (V.Tint | V.Tfloat), (V.Tint | V.Tfloat) -> V.Tfloat
      | t, _ -> t)
  | E.Binop ("%", _, _) -> V.Tint
  | E.Binop (_, a, _) -> expr_type cat g quants a
  | E.Fncall (("year" | "month" | "day" | "length" | "mod"), _) -> V.Tint
  | E.Fncall ("float", _) -> V.Tfloat
  | E.Fncall (("upper" | "lower"), _) -> V.Tstr
  | E.Fncall ("coalesce", args) -> (
      match args with
      | a :: _ -> expr_type cat g quants a
      | [] -> V.Tstr)
  | E.Fncall ("abs", [ a ]) -> expr_type cat g quants a
  | E.Fncall (_, _) -> V.Tstr
  | E.Agg ({ E.fn = E.Count | E.Count_star; _ }, _) -> V.Tint
  | E.Agg ({ E.fn = E.Avg; _ }, _) -> V.Tfloat
  | E.Agg (_, Some a) -> expr_type cat g quants a
  | E.Agg (_, None) -> V.Tint
  | E.Is_null _ -> V.Tbool
  | E.Case (arms, els) -> (
      match (arms, els) with
      | (_, v) :: _, _ -> expr_type cat g quants v
      | [], Some e -> expr_type cat g quants e
      | [], None -> V.Tstr)

let infer_outputs cat g =
  let root = Graph.root g in
  List.map
    (fun c -> (c, col_type cat g root c))
    (B.output_cols (Graph.box g root))
