module B = Box
module G = Graph

type keys = { exact : string; template : string }

(* A literal's slot in the template key: its type, never its value. *)
let slot (v : Data.Value.t) =
  match v with
  | Data.Value.Null -> "?null"
  | Int _ -> "?int"
  | Float _ -> "?float"
  | Str _ -> "?str"
  | Bool _ -> "?bool"
  | Date _ -> "?date"

let comparison = function
  | "=" | "<>" | "<" | "<=" | ">" | ">=" -> true
  | _ -> false

(* Replace every literal that is a direct operand of a comparison reached
   through AND / OR / NOT by its typed slot. BETWEEN and IN are built as
   comparisons under AND / OR, so their bounds and members are slots too.
   A literal anywhere else (arithmetic, a function argument, a CASE) is
   left as it is. *)
let rec slotted (e : string Expr.t) =
  let operand = function Expr.Const v -> Expr.Col (slot v) | e -> e in
  match e with
  | Expr.Binop (op, a, b) when comparison op -> Expr.Binop (op, operand a, operand b)
  | Expr.Binop (("AND" | "OR") as op, a, b) -> Expr.Binop (op, slotted a, slotted b)
  | Expr.Unop ("NOT", a) -> Expr.Unop ("NOT", slotted a)
  | e -> e

let render_col (i, c) = Printf.sprintf "q%d.%s" i c

(* Render an expression after alpha-renaming its column references through
   [ren] (quantifier id -> positional index). Renaming happens *before*
   Expr.normalize so that the commutative-operand sort works on canonical
   indices rather than builder-assigned quantifier ids. *)
let render_expr ren e =
  e
  |> Expr.map_col (fun { B.quant; col } -> (ren quant, col))
  |> Expr.normalize
  |> Expr.to_string render_col

(* A predicate in both keys. The template re-normalizes after slotting, so
   operands that were ordered by their literal values sort by shape. *)
let render_pred ren p =
  let n = Expr.normalize (Expr.map_col (fun { B.quant; col } -> (ren quant, col)) p) in
  ( Expr.to_string render_col n,
    Expr.to_string Fun.id
      (Expr.normalize (slotted (Expr.map_col render_col n))) )

(* The canonical forms behind both keys: (exact, template). *)
let canonical_both g =
  let memo = Hashtbl.create 16 in
  let both s = (s, s) in
  let rec ser id =
    match Hashtbl.find_opt memo id with
    | Some s -> s
    | None ->
        (* guard against (invalid) cycles: a box being serialized renders
           as a back-reference rather than recursing forever *)
        Hashtbl.replace memo id (both (Printf.sprintf "(cycle %d)" id));
        let s = ser_body id in
        Hashtbl.replace memo id s;
        s
  and ser_body id =
    match G.box_opt g id with
    | None -> both (Printf.sprintf "(dangling %d)" id)
    | Some b -> (
        match b.B.body with
        | B.Base { bt_table; bt_cols } ->
            both
              (Printf.sprintf "(base %s (%s))" bt_table
                 (String.concat " " bt_cols))
        | B.Select s ->
            let qix = List.mapi (fun i q -> (q.B.q_id, i)) s.B.sel_quants in
            let ren qid = Option.value ~default:(-1) (List.assoc_opt qid qix) in
            let quants =
              List.map
                (fun q ->
                  let kind =
                    match q.B.q_kind with B.Foreach -> "F" | B.Scalar -> "S"
                  in
                  let e, t = ser q.B.q_box in
                  (Printf.sprintf "(%s %s)" kind e, Printf.sprintf "(%s %s)" kind t))
                s.B.sel_quants
            in
            let preds = List.map (render_pred ren) s.B.sel_preds in
            let sorted f = String.concat " " (List.sort compare (List.map f preds)) in
            let outs =
              String.concat " "
                (List.map
                   (fun (n, e) -> Printf.sprintf "%s=%s" n (render_expr ren e))
                   s.B.sel_outs)
            in
            let select quants preds =
              Printf.sprintf "(select (q %s) (p %s) (o %s))"
                (String.concat " " quants) preds outs
            in
            ( select (List.map fst quants) (sorted fst),
              select (List.map snd quants) (sorted snd) )
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
            let group child =
              Printf.sprintf "(group (%s %s) %s (a %s))"
                (match grp.B.grp_quant.B.q_kind with
                | B.Foreach -> "F"
                | B.Scalar -> "S")
                child keys
                (String.concat " " aggs)
            in
            let e, t = ser grp.B.grp_quant.B.q_box in
            (group e, group t)
        | B.Union u ->
            let quants = List.map (fun q -> ser q.B.q_box) u.B.un_quants in
            let union quants =
              Printf.sprintf "(union-all (cols %s) (q %s))"
                (String.concat " " u.B.un_cols)
                (String.concat " " quants)
            in
            (union (List.map fst quants), union (List.map snd quants)))
  in
  let exact, template = ser (G.root g) in
  let pres = G.presentation g in
  let order =
    List.map
      (fun (c, asc) -> Printf.sprintf "%s:%s" c (if asc then "a" else "d"))
      pres.G.order_by
  in
  let pres =
    Printf.sprintf " (pres (order %s) (limit %s))"
      (String.concat " " order)
      (match pres.G.limit with Some n -> string_of_int n | None -> "-")
  in
  (exact ^ pres, template ^ pres)

let canonical g = fst (canonical_both g)
let digest s = Digest.to_hex (Digest.string s)

let keys g =
  let exact, template = canonical_both g in
  { exact = digest exact; template = digest template }

let of_graph g = digest (canonical g)
