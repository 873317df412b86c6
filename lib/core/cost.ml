module E = Qgm.Expr
module B = Qgm.Box
module G = Qgm.Graph
module V = Data.Value

let default_rows = 1000.
let range_selectivity = 0.33
let misc_selectivity = 0.5

(* ------------------------------------------------------------------ *)
(* Distinct-count estimation per (box, output column)                  *)
(* ------------------------------------------------------------------ *)

let rec box_rows_memo cat g memo id =
  match Hashtbl.find_opt memo id with
  | Some r -> r
  | None ->
      Hashtbl.replace memo id default_rows (* cycle guard; graphs are DAGs *);
      let r = compute_rows cat g memo id in
      Hashtbl.replace memo id r;
      r

and col_ndv cat g memo box_id col =
  let box = G.box g box_id in
  let rows = box_rows_memo cat g memo box_id in
  let capped x = Float.max 1. (Float.min x rows) in
  match box.B.body with
  | B.Base { bt_table; _ } ->
      capped
        (match Catalog.col_ndv cat bt_table col with
        | Some n -> float_of_int n
        | None -> Float.min rows 100.)
  | B.Select sel -> (
      match List.assoc_opt col sel.B.sel_outs with
      | Some (E.Col { B.quant; col = c }) -> (
          match
            List.find_opt (fun q -> q.B.q_id = quant) sel.B.sel_quants
          with
          | Some q -> capped (col_ndv cat g memo q.B.q_box c)
          | None -> capped rows)
      | Some _ -> capped rows (* computed column: no better information *)
      | None -> capped rows)
  | B.Group grp ->
      let child = grp.B.grp_quant.B.q_box in
      if List.mem col (B.grouping_union grp.B.grp_grouping)
      then capped (col_ndv cat g memo child col)
      else capped rows (* aggregate output *)
  | B.Union _ -> capped rows

and selectivity cat g memo (quants : B.quant list) p =
  let ndv_of { B.quant; col } =
    match List.find_opt (fun q -> q.B.q_id = quant) quants with
    | Some q -> col_ndv cat g memo q.B.q_box col
    | None -> default_rows
  in
  match p with
  | E.Binop ("=", E.Col a, E.Col b) ->
      1. /. Float.max 1. (Float.max (ndv_of a) (ndv_of b))
  | E.Binop ("=", E.Col a, E.Const _) | E.Binop ("=", E.Const _, E.Col a) ->
      1. /. Float.max 1. (ndv_of a)
  | E.Binop (("<" | "<=" | ">" | ">="), _, _) -> range_selectivity
  | E.Is_null (_, true) -> 0.1
  | E.Is_null (_, false) -> 0.9
  | E.Binop ("AND", _, _) | E.Binop ("OR", _, _) | _ -> misc_selectivity

and compute_rows cat g memo id =
  let box = G.box g id in
  match box.B.body with
  | B.Base { bt_table; _ } -> (
      match Catalog.row_count cat bt_table with
      | Some n -> float_of_int n
      | None -> default_rows)
  | B.Select sel ->
      let inputs =
        List.filter (fun q -> q.B.q_kind = B.Foreach) sel.B.sel_quants
      in
      let cross =
        List.fold_left
          (fun acc q -> acc *. box_rows_memo cat g memo q.B.q_box)
          1. inputs
      in
      let filtered =
        List.fold_left
          (fun acc p -> acc *. selectivity cat g memo sel.B.sel_quants p)
          cross sel.B.sel_preds
      in
      Float.max 1. filtered
  | B.Union u ->
      let total =
        List.fold_left
          (fun acc q -> acc +. box_rows_memo cat g memo q.B.q_box)
          0. u.B.un_quants
      in
      Float.max 1. total
  | B.Group grp ->
      let child = grp.B.grp_quant.B.q_box in
      let child_rows = box_rows_memo cat g memo child in
      let groups_of set =
        let key_card =
          List.fold_left
            (fun acc k -> acc *. col_ndv cat g memo child k)
            1. set
        in
        Float.max 1. (Float.min child_rows key_card)
      in
      List.fold_left
        (fun acc set -> acc +. groups_of set)
        0.
        (B.grouping_sets grp.B.grp_grouping)

(* ------------------------------------------------------------------ *)

let box_rows cat g id = box_rows_memo cat g (Hashtbl.create 16) id

let graph_cost cat g =
  let memo = Hashtbl.create 16 in
  let reach = G.reachable g (G.root g) in
  List.fold_left
    (fun acc id ->
      let box = G.box g id in
      let consumed =
        List.fold_left
          (fun acc q ->
            match q.B.q_kind with
            | B.Foreach -> acc +. box_rows_memo cat g memo q.B.q_box
            | B.Scalar -> acc +. 1.)
          0. (B.quants_of box)
      in
      acc +. consumed)
    0. reach

let explain cat g =
  let memo = Hashtbl.create 16 in
  let buf = Buffer.create 256 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let pp_qref fmt { B.quant; col } = Format.fprintf fmt "q%d.%s" quant col in
  let expr_str e = Format.asprintf "%a" (E.pp pp_qref) e in
  let rec go indent id =
    let pad = String.make (indent * 2) ' ' in
    let rows = box_rows_memo cat g memo id in
    let box = G.box g id in
    (match box.B.body with
    | B.Base { bt_table; _ } ->
        addf "%sSCAN %s  (~%.0f rows)\n" pad bt_table rows
    | B.Select sel ->
        let kind =
          if List.length (List.filter (fun q -> q.B.q_kind = B.Foreach) sel.B.sel_quants) > 1
          then "JOIN"
          else "SELECT"
        in
        addf "%s%s  (~%.0f rows)\n" pad kind rows;
        List.iter
          (fun p -> addf "%s  pred %s\n" pad (expr_str p))
          sel.B.sel_preds
    | B.Union _ ->
        addf "%sUNION ALL  (~%.0f rows)\n" pad rows
    | B.Group grp ->
        let keys =
          match grp.B.grp_grouping with
          | B.Simple cols -> String.concat ", " cols
          | B.Gsets sets ->
              "GS(" ^ String.concat "; " (List.map (String.concat ",") sets) ^ ")"
        in
        addf "%sGROUP BY %s  (~%.0f rows)\n" pad keys rows);
    List.iter (fun q -> go (indent + 1) q.B.q_box) (B.quants_of box)
  in
  go 0 (G.root g);
  addf "total estimated work: %.0f\n" (graph_cost cat g);
  Buffer.contents buf
