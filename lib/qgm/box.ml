(* QGM structural types (shared type-only module).

   A query is a rooted DAG of boxes. Leaves are base tables; interior boxes
   are SELECT (select-project-join, WHERE/HAVING predicates, scalar
   computation) or GROUP BY (grouping + aggregation, possibly
   multidimensional). Boxes consume their children's output columns (QCLs)
   through quantifiers; a quantifier-column pair is a QNC. *)

type box_id = int
type quant_id = int

(* A QNC: input column [col] of the box, flowing from quantifier [quant]. *)
type qref = { quant : quant_id; col : string }

type quant_kind =
  | Foreach  (* regular join operand: iterate over all rows *)
  | Scalar   (* scalar subquery: exactly one row expected (empty -> NULL) *)

type quant = { q_id : quant_id; q_box : box_id; q_kind : quant_kind }

type grouping =
  | Simple of string list          (* grouping column names (child QCLs) *)
  | Gsets of string list list      (* canonical grouping sets (paper, section 5) *)

(* Aggregate application inside a GROUP BY box: argument is a child column
   (simple QNC), per the QGM restriction the paper states in section 2. *)
type agg_app = { agg : Expr.agg; arg : string option }

type base_body = { bt_table : string; bt_cols : string list }

type select_body = {
  sel_quants : quant list;
  sel_preds : qref Expr.t list;            (* implicit conjunction *)
  sel_outs : (string * qref Expr.t) list;  (* output name -> defining expr *)
}

type group_body = {
  grp_quant : quant;
  grp_grouping : grouping;
  grp_aggs : (string * agg_app) list;      (* output name -> aggregate *)
}

(* UNION ALL: children must agree in arity; output column names come
   from the declared list (the first branch's names). A UNION that
   eliminates duplicates is this box under a key-only GROUP BY. *)
type union_body = {
  un_quants : quant list;
  un_cols : string list;
}

type body =
  | Base of base_body
  | Select of select_body
  | Group of group_body
  | Union of union_body

type box = { id : box_id; body : body }

(* The union of grouping columns: for [Simple g] it is [g]; for [Gsets] the
   (order-preserving) union of all sets. *)
let grouping_union = function
  | Simple g -> g
  | Gsets sets ->
      List.fold_left
        (fun acc set ->
          List.fold_left
            (fun acc c -> if List.mem c acc then acc else acc @ [ c ])
            acc set)
        [] sets

let grouping_sets = function Simple g -> [ g ] | Gsets sets -> sets

(* Output column names of a box, in order. *)
let output_cols box =
  match box.body with
  | Base b -> b.bt_cols
  | Select s -> List.map fst s.sel_outs
  | Group g -> grouping_union g.grp_grouping @ List.map fst g.grp_aggs
  | Union u -> u.un_cols

let quants_of box =
  match box.body with
  | Base _ -> []
  | Select s -> s.sel_quants
  | Group g -> [ g.grp_quant ]
  | Union u -> u.un_quants

let children_ids box = List.map (fun q -> q.q_box) (quants_of box)

let is_select box = match box.body with Select _ -> true | _ -> false
let is_group box = match box.body with Group _ -> true | _ -> false
let is_base box = match box.body with Base _ -> true | _ -> false
