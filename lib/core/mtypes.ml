(* Shared vocabulary of the matching algorithm (paper section 3).

   A match of subsumee box E (from the query graph) with subsumer box R
   (from the AST graph) is either exact — every E output column has a
   semantically equivalent R output column — or carries a compensation: a
   stack of relational levels to apply on top of R's output to reproduce
   E's output exactly. Compensation levels are abstract (not yet QGM
   boxes): patterns need to introspect their shape (paper sections 4.2.x),
   and only the final rewrite materializes them as boxes. *)

module E = Qgm.Expr
module B = Qgm.Box

(* Column reference inside a compensation level. *)
type cref =
  | Below of string
      (* output column of the level beneath; for the bottom level, an
         output column of the subsumer *)
  | Rejoin of B.qref
      (* column of a rejoined query-graph child, addressed by the ORIGINAL
         query quantifier (the rewrite allocates fresh quantifiers) *)

(* Leaves of a translated subsumee expression (section 6): subsumer inputs
   (QNCs) or rejoin columns. *)
type txref =
  | Rin of B.qref   (* subsumer input: (subsumer quantifier, column) *)
  | Rj of B.qref    (* rejoin child column (query-graph quantifier) *)

type rejoin_child = {
  rc_quant : B.quant;   (* the original query quantifier (id + box + kind) *)
}

type level =
  | L_select of {
      ls_rejoins : rejoin_child list;
      ls_preds : cref E.t list;
      ls_outs : (string * cref E.t) list;
    }
  | L_group of {
      lg_grouping : B.grouping;  (* over output names of the level below *)
      (* aggregate outputs; the argument is an expression over the level
         below (the rewrite inserts a SELECT when it is not a plain column) *)
      lg_aggs : (string * E.agg * cref E.t option) list;
    }

(* A successful match. [Exact cmap]: subsumee output column -> equivalent
   subsumer output column (the subsumer may produce extra columns, paper
   footnote 5). [Comp levels]: bottom-up; the top level produces exactly
   the subsumee's output columns. *)
type result = Exact of (string * string) list | Comp of level list

let level_is_group = function L_group _ -> true | L_select _ -> false
let comp_has_group levels = List.exists level_is_group levels

let level_outs = function
  | L_select { ls_outs; _ } -> List.map fst ls_outs
  | L_group { lg_grouping; lg_aggs; _ } ->
      B.grouping_union lg_grouping @ List.map (fun (n, _, _) -> n) lg_aggs

(* The expression a level computes for one of its output columns, over the
   level below. Grouping columns pass through; aggregate outputs surface as
   Agg expressions (used for expression translation, Figure 15). *)
let level_out_expr level col =
  match level with
  | L_select { ls_outs; _ } -> List.assoc_opt col ls_outs
  | L_group { lg_grouping; lg_aggs; _ } ->
      if List.mem col (B.grouping_union lg_grouping) then Some (E.Col (Below col))
      else
        List.find_map
          (fun (n, agg, arg) -> if n = col then Some (E.Agg (agg, arg)) else None)
          lg_aggs

let pp_cref fmt = function
  | Below c -> Format.fprintf fmt "%s" c
  | Rejoin { B.quant; col } -> Format.fprintf fmt "rj:q%d.%s" quant col

let pp_txref fmt = function
  | Rin { B.quant; col } -> Format.fprintf fmt "q%d.%s" quant col
  | Rj { B.quant; col } -> Format.fprintf fmt "rj:q%d.%s" quant col

let pp_level fmt = function
  | L_select { ls_rejoins; ls_preds; ls_outs } ->
      Format.fprintf fmt "SELECT";
      List.iter
        (fun rc -> Format.fprintf fmt " rejoin(q%d->box %d)" rc.rc_quant.B.q_id rc.rc_quant.B.q_box)
        ls_rejoins;
      List.iter
        (fun p -> Format.fprintf fmt "@ pred %a" (E.pp pp_cref) p)
        ls_preds;
      List.iter
        (fun (n, e) -> Format.fprintf fmt "@ out %s = %a" n (E.pp pp_cref) e)
        ls_outs
  | L_group { lg_grouping; lg_aggs } ->
      Format.fprintf fmt "GROUP BY ";
      (match lg_grouping with
      | B.Simple cols -> Format.fprintf fmt "%s" (String.concat ", " cols)
      | B.Gsets sets ->
          Format.fprintf fmt "GS(%s)"
            (String.concat "; "
               (List.map (fun s -> String.concat "," s) sets)));
      List.iter
        (fun (n, agg, arg) ->
          Format.fprintf fmt "@ agg %s = %s(%s)" n
            (E.agg_fn_to_string agg.E.fn)
            (match arg with
            | None -> "*"
            | Some e -> E.to_string (Format.asprintf "%a" pp_cref) e))
        lg_aggs

let pp_result fmt = function
  | Exact cmap ->
      Format.fprintf fmt "EXACT {%s}"
        (String.concat ", " (List.map (fun (a, b) -> a ^ "->" ^ b) cmap))
  | Comp levels ->
      Format.fprintf fmt "COMP [@[%a@]]"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.fprintf fmt ";@ ")
           pp_level)
        levels
