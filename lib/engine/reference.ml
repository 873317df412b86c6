module V = Data.Value
module R = Data.Relation
module E = Qgm.Expr
module B = Qgm.Box
module G = Qgm.Graph

exception Reference_error of string

let err fmt = Format.kasprintf (fun s -> raise (Reference_error s)) fmt

(* An environment binds quantifier ids to (column names, row). *)
type env = (int * (string array * V.t array)) list

let lookup (env : env) { B.quant; col } =
  match List.assoc_opt quant env with
  | None -> err "unbound quantifier %d (column %s)" quant col
  | Some (cols, row) -> (
      let lcol = String.lowercase_ascii col in
      let rec go i =
        if i >= Array.length cols then
          err "unknown column %s of quantifier %d (has: %s)" col quant
            (String.concat ", " (Array.to_list cols))
        else if String.lowercase_ascii cols.(i) = lcol then row.(i)
        else go (i + 1)
      in
      go 0)

(* The operators take their inputs through a [child] callback (quantifier ->
   relation); [eval_box] below wires them into the naive whole-plan
   recursion. *)

let eval_union ~(child : B.quant -> R.t) (u : B.union_body) : R.t =
  let rows = List.concat_map (fun q -> R.rows (child q)) u.B.un_quants in
  R.create u.B.un_cols rows

(* Cross product of all foreach children, then filter with the full
   conjunction, then project. Scalar children contribute one (possibly
   NULL-padded) row. *)
let eval_select ~(child : B.quant -> R.t) (sel : B.select_body) : R.t =
  let bind q =
    let rel = child q in
    let cols = R.columns rel in
    match q.B.q_kind with
    | B.Foreach -> (q.B.q_id, cols, R.rows rel)
    | B.Scalar ->
        let row =
          match R.rows rel with
          | [] -> Array.make (Array.length cols) V.Null
          | [ r ] -> r
          | rows ->
              err "scalar subquery (quantifier %d, box %d) returned %d rows"
                q.B.q_id q.B.q_box (List.length rows)
        in
        (q.B.q_id, cols, [ row ])
  in
  let children = List.map bind sel.B.sel_quants in
  let rec cross acc = function
    | [] -> [ List.rev acc ]
    | (qid, cols, rows) :: rest ->
        List.concat_map
          (fun row -> cross ((qid, (cols, row)) :: acc) rest)
          rows
  in
  let envs = cross [] children in
  let keep env =
    List.for_all (fun p -> V.is_true (Eval.eval (lookup env) p)) sel.B.sel_preds
  in
  let rows =
    List.filter_map
      (fun env ->
        if keep env then
          Some
            (Array.of_list
               (List.map (fun (_, e) -> Eval.eval (lookup env) e) sel.B.sel_outs))
        else None)
      envs
  in
  R.create (List.map fst sel.B.sel_outs) rows

(* Grouping by rescanning: distinct keys first, then one pass per group per
   aggregate. *)
let eval_group ~(child : B.quant -> R.t) (grp : B.group_body) : R.t =
  let child = child grp.B.grp_quant in
  let idx name = R.column_index child name in
  let union = B.grouping_union grp.B.grp_grouping in
  let out_names = union @ List.map fst grp.B.grp_aggs in
  let cuboid set =
    let set_idx = List.map idx set in
    let key_of row = List.map (fun i -> row.(i)) set_idx in
    let keys =
      let rec dedup seen = function
        | [] -> List.rev seen
        | r :: rest ->
            let k = key_of r in
            if List.exists (fun k' -> List.for_all2 V.equal k k') seen then
              dedup seen rest
            else dedup (k :: seen) rest
      in
      dedup [] (R.rows child)
    in
    let keys = if keys = [] && set = [] then [ [] ] else keys in
    List.map
      (fun key ->
        let members =
          List.filter
            (fun row -> List.for_all2 V.equal (key_of row) key)
            (R.rows child)
        in
        let agg_value (_, { B.agg; arg }) =
          let values =
            match arg with
            | None -> List.map (fun _ -> V.Int 1) members
            | Some a -> List.map (fun row -> row.(idx a)) members
          in
          let non_null = List.filter (fun v -> not (V.is_null v)) values in
          let non_null =
            if agg.E.distinct then
              let rec dedup seen = function
                | [] -> List.rev seen
                | v :: rest ->
                    if List.exists (V.equal v) seen then dedup seen rest
                    else dedup (v :: seen) rest
              in
              dedup [] non_null
            else non_null
          in
          match agg.E.fn with
          | E.Count_star -> V.Int (List.length members)
          | E.Count -> V.Int (List.length non_null)
          | E.Sum -> (
              match non_null with
              | [] -> V.Null
              | v :: rest -> List.fold_left V.add v rest)
          | E.Min -> (
              match non_null with
              | [] -> V.Null
              | v :: rest ->
                  List.fold_left (fun a b -> if V.compare b a < 0 then b else a) v rest)
          | E.Max -> (
              match non_null with
              | [] -> V.Null
              | v :: rest ->
                  List.fold_left (fun a b -> if V.compare b a > 0 then b else a) v rest)
          | E.Avg -> (
              match non_null with
              | [] -> V.Null
              | vs ->
                  let total =
                    List.fold_left (fun a v -> a +. V.to_float v) 0.0 vs
                  in
                  V.Float (total /. float_of_int (List.length vs)))
        in
        let union_vals =
          List.map
            (fun c ->
              match
                List.find_index
                  (fun c' ->
                    String.lowercase_ascii c' = String.lowercase_ascii c)
                  set
              with
              | Some j -> List.nth key j
              | None -> V.Null)
            union
        in
        Array.of_list (union_vals @ List.map agg_value grp.B.grp_aggs))
      keys
  in
  R.create out_names
    (List.concat_map cuboid (B.grouping_sets grp.B.grp_grouping))

let rec eval_box db g id : R.t =
  let child q = eval_box db g q.B.q_box in
  match (G.box g id).B.body with
  | B.Base { bt_table; bt_cols } -> R.project (Db.get_exn db bt_table) bt_cols
  | B.Select sel -> eval_select ~child sel
  | B.Group grp -> eval_group ~child grp
  | B.Union u -> eval_union ~child u

let run db g =
  let rel = eval_box db g (G.root g) in
  let { G.order_by; limit } = G.presentation g in
  let rel =
    if order_by = [] then rel
    else
      let idx = List.map (fun (c, asc) -> (R.column_index rel c, asc)) order_by in
      R.sort
        (fun a b ->
          let rec go = function
            | [] -> 0
            | (i, asc) :: rest ->
                let c = V.compare a.(i) b.(i) in
                if c <> 0 then if asc then c else -c else go rest
          in
          go idx)
        rel
  in
  match limit with
  | None -> rel
  | Some n ->
      let rec take k = function
        | [] -> []
        | _ when k = 0 -> []
        | x :: rest -> x :: take (k - 1) rest
      in
      R.create (Array.to_list (R.columns rel)) (take n (R.rows rel))
