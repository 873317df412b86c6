module IM = Map.Make (Int)

type presentation = {
  order_by : (string * bool) list;
  limit : int option;
}

type t = {
  boxes : Box.box IM.t;
  root_id : Box.box_id;
  next_box : int;
  next_quant : int;
  pres : presentation;
}

let no_pres = { order_by = []; limit = None }

let empty =
  { boxes = IM.empty; root_id = -1; next_box = 0; next_quant = 0; pres = no_pres }

let add_box g body =
  let id = g.next_box in
  let box = { Box.id; body } in
  ({ g with boxes = IM.add id box g.boxes; next_box = id + 1 }, id)

let fresh_quant g box_id kind =
  let q = { Box.q_id = g.next_quant; q_box = box_id; q_kind = kind } in
  ({ g with next_quant = g.next_quant + 1 }, q)

let set_root g id = { g with root_id = id }
let root g = g.root_id
let box_opt g id = IM.find_opt id g.boxes

let box g id =
  match box_opt g id with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Graph.box: unknown box %d" id)

let update_box g id body =
  match IM.find_opt id g.boxes with
  | None -> invalid_arg (Printf.sprintf "Graph.update_box: unknown box %d" id)
  | Some _ -> { g with boxes = IM.add id { Box.id; body } g.boxes }

let set_presentation g pres = { g with pres }
let presentation g = g.pres
let box_ids g = List.map fst (IM.bindings g.boxes)

let reachable g start =
  let seen = Hashtbl.create 16 in
  let rec visit id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      match box_opt g id with
      | None -> ()
      | Some b -> List.iter visit (Box.children_ids b)
    end
  in
  visit start;
  List.filter (Hashtbl.mem seen) (box_ids g)

let parents g =
  let tbl = Hashtbl.create 16 in
  IM.iter
    (fun id b ->
      List.iter
        (fun child ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt tbl child) in
          if not (List.mem id cur) then Hashtbl.replace tbl child (id :: cur))
        (Box.children_ids b))
    g.boxes;
  tbl

let base_leaves g start =
  List.filter (fun id -> Box.is_base (box g id)) (reachable g start)

let quant_in b qid = List.find_opt (fun q -> q.Box.q_id = qid) (Box.quants_of b)

let quant_cols g q = Box.output_cols (box g q.Box.q_box)

(* ------------------------------------------------------------------ *)
(* Debug printing                                                      *)
(* ------------------------------------------------------------------ *)

let pp_qref fmt { Box.quant; col } = Format.fprintf fmt "q%d.%s" quant col

let pp fmt g =
  let pp_expr = Expr.pp pp_qref in
  IM.iter
    (fun id b ->
      let mark = if id = g.root_id then "*" else " " in
      match b.Box.body with
      | Box.Base { bt_table = table; bt_cols = cols } ->
          Format.fprintf fmt "%s[%d] BASE %s (%s)@\n" mark id table
            (String.concat ", " cols)
      | Box.Select s ->
          Format.fprintf fmt "%s[%d] SELECT%s@\n" mark id
            (if s.sel_distinct then " DISTINCT" else "");
          List.iter
            (fun q ->
              Format.fprintf fmt "      quant q%d -> box %d%s@\n" q.Box.q_id
                q.Box.q_box
                (match q.Box.q_kind with
                | Box.Scalar -> " (scalar)"
                | Box.Foreach -> ""))
            s.sel_quants;
          List.iter
            (fun p -> Format.fprintf fmt "      pred %a@\n" pp_expr p)
            s.sel_preds;
          List.iter
            (fun (n, e) -> Format.fprintf fmt "      out %s = %a@\n" n pp_expr e)
            s.sel_outs
      | Box.Union u ->
          Format.fprintf fmt "%s[%d] UNION%s (%s)@\n" mark id
            (if u.un_all then " ALL" else "")
            (String.concat ", "
               (List.map (fun q -> string_of_int q.Box.q_box) u.un_quants))
      | Box.Group grp ->
          Format.fprintf fmt "%s[%d] GROUP BY (quant q%d -> box %d)@\n" mark id
            grp.grp_quant.Box.q_id grp.grp_quant.Box.q_box;
          (match grp.grp_grouping with
          | Box.Simple cols ->
              Format.fprintf fmt "      keys: %s@\n" (String.concat ", " cols)
          | Box.Gsets sets ->
              Format.fprintf fmt "      grouping sets: %s@\n"
                (String.concat "; "
                   (List.map (fun s -> "(" ^ String.concat ", " s ^ ")") sets)));
          List.iter
            (fun (n, { Box.agg; arg }) ->
              Format.fprintf fmt "      agg %s = %s(%s%s)@\n" n
                (Expr.agg_fn_to_string agg.Expr.fn)
                (if agg.Expr.distinct then "DISTINCT " else "")
                (match arg with Some a -> a | None -> "*"))
            grp.grp_aggs)
    g.boxes
