module B = Box
module G = Graph

(* Render an expression after alpha-renaming its column references through
   [ren] (quantifier id -> positional index). Renaming happens *before*
   Expr.normalize so that the commutative-operand sort works on canonical
   indices rather than builder-assigned quantifier ids. *)
let render_expr ren e =
  e
  |> Expr.map_col (fun { B.quant; col } -> (ren quant, col))
  |> Expr.normalize
  |> Expr.to_string (fun (i, c) -> Printf.sprintf "q%d.%s" i c)

let canonical g =
  let memo = Hashtbl.create 16 in
  let rec ser id =
    match Hashtbl.find_opt memo id with
    | Some s -> s
    | None ->
        (* guard against (invalid) cycles: a box being serialized renders
           as a back-reference rather than recursing forever *)
        Hashtbl.replace memo id (Printf.sprintf "(cycle %d)" id);
        let s = ser_body id in
        Hashtbl.replace memo id s;
        s
  and ser_body id =
    match G.box_opt g id with
    | None -> Printf.sprintf "(dangling %d)" id
    | Some b -> (
        match b.B.body with
        | B.Base { bt_table; bt_cols } ->
            Printf.sprintf "(base %s (%s))" bt_table (String.concat " " bt_cols)
        | B.Select s ->
            let qix = List.mapi (fun i q -> (q.B.q_id, i)) s.B.sel_quants in
            let ren qid = Option.value ~default:(-1) (List.assoc_opt qid qix) in
            let quants =
              List.map
                (fun q ->
                  Printf.sprintf "(%s %s)"
                    (match q.B.q_kind with B.Foreach -> "F" | B.Scalar -> "S")
                    (ser q.B.q_box))
                s.B.sel_quants
            in
            let preds =
              List.sort compare (List.map (render_expr ren) s.B.sel_preds)
            in
            let outs =
              List.map
                (fun (n, e) -> Printf.sprintf "%s=%s" n (render_expr ren e))
                s.B.sel_outs
            in
            Printf.sprintf "(select (q %s) (p %s) (o %s))"
              (String.concat " " quants)
              (String.concat " " preds)
              (String.concat " " outs)
        | B.Group grp ->
            let keys =
              match grp.B.grp_grouping with
              | B.Simple ks -> Printf.sprintf "(simple %s)" (String.concat " " ks)
              | B.Gsets sets ->
                  Printf.sprintf "(gsets %s)"
                    (String.concat " "
                       (List.map
                          (fun s ->
                            "(" ^ String.concat " " s ^ ")")
                          sets))
            in
            let aggs =
              List.map
                (fun (n, { B.agg; arg }) ->
                  Printf.sprintf "%s=%s%s(%s)" n
                    (Expr.agg_fn_to_string agg.Expr.fn)
                    (if agg.Expr.distinct then "-distinct" else "")
                    (match (agg.Expr.fn, arg) with
                    | Expr.Count_star, _ -> "*"
                    | _, Some a -> a
                    | _, None -> "?"))
                grp.B.grp_aggs
            in
            Printf.sprintf "(group (%s %s) %s (a %s))"
              (match grp.B.grp_quant.B.q_kind with
              | B.Foreach -> "F"
              | B.Scalar -> "S")
              (ser grp.B.grp_quant.B.q_box)
              keys
              (String.concat " " aggs)
        | B.Union u ->
            let quants = List.map (fun q -> ser q.B.q_box) u.B.un_quants in
            Printf.sprintf "(union-all (cols %s) (q %s))"
              (String.concat " " u.B.un_cols)
              (String.concat " " quants))
  in
  let body = ser (G.root g) in
  let pres = G.presentation g in
  let order =
    List.map
      (fun (c, asc) -> Printf.sprintf "%s:%s" c (if asc then "a" else "d"))
      pres.G.order_by
  in
  Printf.sprintf "%s (pres (order %s) (limit %s))" body
    (String.concat " " order)
    (match pres.G.limit with Some n -> string_of_int n | None -> "-")

let of_graph g = Digest.to_hex (Digest.string (canonical g))
