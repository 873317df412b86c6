exception Sem_error of string

let err fmt = Format.kasprintf (fun s -> raise (Sem_error s)) fmt

(* Re-raise semantic errors from a nested block prefixed with the subquery
   it happened in, so "unknown column" names the right scope; nesting
   chains the contexts outermost-first. *)
let in_context ctx f =
  try f () with Sem_error m -> err "in %s: %s" ctx m

let norm = String.lowercase_ascii

module A = Sqlsyn.Ast

type binding = { b_name : string; b_quant : Box.quant; b_cols : string list }

type build_state = {
  mutable g : Graph.t;
  cat : Catalog.t;
  mutable base_cache : (string * Box.box_id) list; (* shared base boxes *)
}

let new_box st body =
  let g, id = Graph.add_box st.g body in
  st.g <- g;
  id

let new_quant st box_id kind =
  let g, q = Graph.fresh_quant st.g box_id kind in
  st.g <- g;
  q

let base_box st table =
  match List.assoc_opt (norm table) st.base_cache with
  | Some id -> id
  | None ->
      let tbl =
        match Catalog.find_table st.cat table with
        | Some t -> t
        | None -> err "unknown table %s" table
      in
      let id =
        new_box st
          (Box.Base { bt_table = tbl.Catalog.tbl_name; bt_cols = Catalog.column_names tbl })
      in
      st.base_cache <- (norm table, id) :: st.base_cache;
      id

(* Unique output-name generation. *)
let uniquify taken proposal =
  let taken = List.map norm taken in
  if not (List.mem (norm proposal) taken) then proposal
  else
    let rec try_n i =
      let cand = Printf.sprintf "%s_%d" proposal i in
      if List.mem (norm cand) taken then try_n (i + 1) else cand
    in
    try_n 1

(* Expressions deduped by normalized form, in first-seen order. *)
let dedup_norm es =
  List.fold_left
    (fun acc e -> if List.exists (Expr.equal_norm e) acc then acc else acc @ [ e ])
    [] es

(* ------------------------------------------------------------------ *)
(* Expression resolution                                               *)
(* ------------------------------------------------------------------ *)

(* Resolution happens within one query block. Scalar subqueries create
   additional scalar quantifiers collected in [extra_quants]. *)
type resolver = {
  st : build_state;
  bindings : binding list;
  mutable extra_quants : Box.quant list;
  spelled : (Box.qref, string) Hashtbl.t;
      (* how the user last wrote each resolved column: the names the block
         generates for it keep that spelling *)
}

let find_binding r qual =
  match
    List.filter (fun b -> norm b.b_name = norm qual) r.bindings
  with
  | [ b ] -> b
  | [] -> err "unknown table or alias %s (correlated references are not supported)" qual
  | _ -> err "ambiguous table or alias %s" qual

(* A column reference is written in the spelling its binding declares it
   (the catalog column, or the child box's output name), so every layer
   below compares names with [=]. *)
let resolve_col r qual col =
  let declared b =
    Option.map (fun c -> (b, c)) (List.find_opt (fun c -> norm c = norm col) b.b_cols)
  in
  let b, decl =
    match qual with
    | Some q -> (
        match declared (find_binding r q) with
        | Some hit -> hit
        | None -> err "column %s not found in %s" col q)
    | None -> (
        match List.filter_map declared r.bindings with
        | [ hit ] -> hit
        | [] ->
            err "unknown column %s (correlated references are not supported)" col
        | _ -> err "ambiguous column %s" col)
  in
  let qr = { Box.quant = b.b_quant.Box.q_id; col = decl } in
  Hashtbl.replace r.spelled qr col;
  Expr.Col qr

let spelling r qr = Option.value ~default:qr.Box.col (Hashtbl.find_opt r.spelled qr)

let rec resolve r (e : A.expr) : Box.qref Expr.t =
  match e with
  | A.Lit v -> Expr.Const v
  | A.Ref (qual, col) -> resolve_col r qual col
  | A.Unop (op, e) -> Expr.Unop (op, resolve r e)
  | A.Binop (op, a, b) -> Expr.Binop (op, resolve r a, resolve r b)
  | A.Fncall (f, args) -> Expr.Fncall (f, List.map (resolve r) args)
  | A.Agg (name, distinct, arg) ->
      let fn =
        match (name, arg) with
        | A.Count, None -> Expr.Count_star
        | A.Count, Some _ -> Expr.Count
        | A.Sum, _ -> Expr.Sum
        | A.Avg, _ -> Expr.Avg
        | A.Min, _ -> Expr.Min
        | A.Max, _ -> Expr.Max
      in
      Expr.Agg ({ Expr.fn; distinct }, Option.map (resolve r) arg)
  | A.Is_null (e, pos) -> Expr.Is_null (resolve r e, pos)
  | A.Between (e, lo, hi) ->
      let e' = resolve r e in
      Expr.Binop
        ( "AND",
          Expr.Binop (">=", e', resolve r lo),
          Expr.Binop ("<=", e', resolve r hi) )
  | A.In_list (e, items, positive) ->
      let e' = resolve r e in
      let eqs =
        List.map (fun it -> Expr.Binop ("=", e', resolve r it)) items
      in
      let ored =
        match eqs with
        | [] -> err "empty IN list"
        | first :: rest ->
            List.fold_left (fun acc x -> Expr.Binop ("OR", acc, x)) first rest
      in
      if positive then ored else Expr.Unop ("NOT", ored)
  | A.Case (arms, els) ->
      Expr.Case
        ( List.map (fun (c, v) -> (resolve r c, resolve r v)) arms,
          Option.map (resolve r) els )
  | A.Scalar_sub q ->
      let sub_root =
        in_context "scalar subquery" (fun () -> build_block r.st q ~top:false)
      in
      let cols = Box.output_cols (Graph.box r.st.g sub_root) in
      let col =
        match cols with
        | [ c ] -> c
        | _ -> err "scalar subquery must return exactly one column"
      in
      let quant = new_quant r.st sub_root Box.Scalar in
      r.extra_quants <- r.extra_quants @ [ quant ];
      Expr.Col { Box.quant = quant.Box.q_id; col }

and split_conjuncts e =
  match e with
  | Expr.Binop ("AND", a, b) -> split_conjuncts a @ split_conjuncts b
  | e -> [ e ]

(* ------------------------------------------------------------------ *)
(* Grouping canonicalization (section 5)                               *)
(* ------------------------------------------------------------------ *)

(* Expand the GROUP BY item list into canonical grouping sets over resolved
   expressions: the cross product of each item's set list, per SQL. *)
and canonical_grouping_sets r items =
  let expand_item = function
    | A.G_expr e -> [ [ resolve r e ] ]
    | A.G_rollup es ->
        let es = List.map (resolve r) es in
        let rec prefixes = function
          | [] -> [ [] ]
          | x :: rest -> (x :: rest) :: prefixes rest
        in
        prefixes (List.rev es) |> List.map List.rev |> fun l ->
        (* prefixes of es, longest first, ending with [] *)
        List.sort (fun a b -> compare (List.length b) (List.length a)) l
    | A.G_cube es ->
        let es = List.map (resolve r) es in
        let rec subsets = function
          | [] -> [ [] ]
          | x :: rest ->
              let s = subsets rest in
              List.map (fun t -> x :: t) s @ s
        in
        subsets es
    | A.G_sets sets -> List.map (List.map (resolve r)) sets
  in
  let cross acc item_sets =
    List.concat_map (fun a -> List.map (fun s -> a @ s) item_sets) acc
  in
  let sets = List.fold_left cross [ [] ] (List.map expand_item items) in
  (* Dedup exprs within a set and duplicate sets (by normalized form). *)
  let sets = List.map dedup_norm sets in
  let rec dedup_sets acc = function
    | [] -> List.rev acc
    | s :: rest ->
        let key s = List.map Expr.normalize s in
        if List.exists (fun s' -> key s' = key s) acc then dedup_sets acc rest
        else dedup_sets (s :: acc) rest
  in
  dedup_sets [] sets

(* ------------------------------------------------------------------ *)
(* Block construction                                                  *)
(* ------------------------------------------------------------------ *)

and output_name_of_item taken i (it : A.select_item) resolved =
  let proposal =
    match it.A.item_alias with
    | Some a -> a
    | None -> (
        match (resolved, it.A.item_expr) with
        | Expr.Col _, A.Ref (_, col) -> col
        | Expr.Col { Box.col; _ }, _ -> col
        | Expr.Agg ({ Expr.fn; _ }, _), _ ->
            String.lowercase_ascii (Expr.agg_fn_to_string fn)
        | _ -> Printf.sprintf "c%d" (i + 1))
  in
  uniquify taken proposal

and build_block st (q : A.query) ~top : Box.box_id =
  let head = build_plain_block st { q with A.unions = [] } ~top in
  (* UNION chains fold left-associatively; a UNION without ALL is the
     UNION ALL of that step under a key-only GROUP BY *)
  List.fold_left
    (fun acc (all, bq) ->
      let branch = build_block st bq ~top:false in
      let head_cols = Box.output_cols (Graph.box st.g acc) in
      let branch_cols = Box.output_cols (Graph.box st.g branch) in
      if List.length head_cols <> List.length branch_cols then
        err "UNION branches have different numbers of columns (%d vs %d)"
          (List.length head_cols) (List.length branch_cols);
      let qa = new_quant st acc Box.Foreach in
      let qb = new_quant st branch Box.Foreach in
      let u =
        new_box st (Box.Union { un_quants = [ qa; qb ]; un_cols = head_cols })
      in
      if all then u else distinct_over st u)
    head q.A.unions

(* Duplicate elimination over a block: a GROUP BY on every output column,
   with no aggregates (its groups are exactly the distinct rows). *)
and distinct_over st child =
  let q = new_quant st child Box.Foreach in
  new_box st
    (Box.Group
       {
         grp_quant = q;
         grp_grouping = Box.Simple (Box.output_cols (Graph.box st.g child));
         grp_aggs = [];
       })

and build_plain_block st (q : A.query) ~top : Box.box_id =
  ignore top;
  if q.A.from = [] then err "FROM clause is required";
  (* 1. children and bindings *)
  let bindings =
    List.map
      (fun item ->
        match item with
        | A.From_table (t, alias) ->
            let id = base_box st t in
            let cols =
              match Graph.box st.g id with
              | { Box.body = Box.Base { bt_cols; _ }; _ } -> bt_cols
              | _ -> assert false
            in
            let quant = new_quant st id Box.Foreach in
            { b_name = Option.value ~default:t alias; b_quant = quant; b_cols = cols }
        | A.From_sub (sub, alias) ->
            let sub_root =
              in_context
                (Printf.sprintf "subquery %s" alias)
                (fun () -> build_block st sub ~top:false)
            in
            let cols = Box.output_cols (Graph.box st.g sub_root) in
            let quant = new_quant st sub_root Box.Foreach in
            { b_name = alias; b_quant = quant; b_cols = cols })
      q.A.from
  in
  let dup_names =
    let names = List.map (fun b -> norm b.b_name) bindings in
    List.length (List.sort_uniq compare names) <> List.length names
  in
  if dup_names then err "duplicate table name or alias in FROM";
  let r = { st; bindings; extra_quants = []; spelled = Hashtbl.create 8 } in
  (* 2. WHERE *)
  let where_preds =
    match q.A.where with
    | None -> []
    | Some w ->
        let p = resolve r w in
        if Expr.contains_agg p then err "aggregates are not allowed in WHERE";
        split_conjuncts p
  in
  (* 3. select items *)
  let star_items =
    if q.A.select_star then
      List.concat_map
        (fun b ->
          List.map
            (fun c ->
              {
                A.item_expr = A.Ref (Some b.b_name, c);
                item_alias = Some c;
              })
            b.b_cols)
        bindings
    else q.A.select
  in
  let resolved_items = List.map (fun it -> (it, resolve r it.A.item_expr)) star_items in
  let having = Option.map (resolve r) q.A.having in
  let gsets = canonical_grouping_sets r q.A.group_by in
  let has_group = q.A.group_by <> [] in
  let has_agg =
    List.exists (fun (_, e) -> Expr.contains_agg e) resolved_items
    || Option.fold ~none:false ~some:Expr.contains_agg having
  in
  let has_having = Option.is_some q.A.having in
  (* a HAVING clause without GROUP BY aggregates over the grand total *)
  if has_group || has_agg || has_having then
    let block =
      build_aggregate_block st r ~bindings ~where_preds ~resolved_items ~having
        ~gsets
    in
    if q.A.distinct then distinct_over st block else block
  else if q.A.distinct then
    (* SELECT DISTINCT items is SELECT items ... GROUP BY items *)
    build_aggregate_block st r ~bindings ~where_preds ~resolved_items ~having
      ~gsets:[ dedup_norm (List.map snd resolved_items) ]
  else begin
    (* plain select-project-join block *)
    let outs, _ =
      List.fold_left
        (fun (outs, i) (it, e) ->
          let name = output_name_of_item (List.map fst outs) i it e in
          (outs @ [ (name, e) ], i + 1))
        ([], 0) resolved_items
    in
    let quants = List.map (fun b -> b.b_quant) bindings @ r.extra_quants in
    new_box st
      (Box.Select { sel_quants = quants; sel_preds = where_preds; sel_outs = outs })
  end

(* Aggregate block: lower SELECT computes grouping expressions and aggregate
   arguments; GROUP BY groups and aggregates; upper SELECT applies HAVING and
   computes the final output expressions (paper Figure 3). *)
and build_aggregate_block st r ~bindings ~where_preds ~resolved_items ~having
    ~gsets =
  (* grouping expressions in first-seen order *)
  let union_exprs = dedup_norm (List.concat gsets) in
  (* name each grouping expression *)
  let alias_for e =
    List.find_map
      (fun (it, re) ->
        match it.A.item_alias with
        | Some a when Expr.equal_norm re e -> Some a
        | _ -> None)
      resolved_items
  in
  let grouping_outs =
    List.fold_left
      (fun acc e ->
        let taken = List.map fst acc in
        let proposal =
          match alias_for e with
          | Some a -> a
          | None -> (
              match e with
              | Expr.Col qr -> spelling r qr
              | _ -> Printf.sprintf "g%d" (List.length acc + 1))
        in
        acc @ [ (uniquify taken proposal, e) ])
      [] union_exprs
  in
  let group_col_of e =
    List.find_map
      (fun (n, ge) -> if Expr.equal_norm ge e then Some n else None)
      grouping_outs
  in
  (* collect distinct aggregate applications from select items + having *)
  let aggs = ref [] in
  let rec collect e =
    match e with
    | Expr.Agg (a, arg) ->
        if
          not
            (List.exists
               (fun (a', arg') ->
                 a' = a
                 &&
                 match (arg, arg') with
                 | None, None -> true
                 | Some x, Some y -> Expr.equal_norm x y
                 | _ -> false)
               !aggs)
        then aggs := !aggs @ [ (a, arg) ]
    | e -> List.iter collect (Expr.children e)
  in
  List.iter (fun (_, e) -> collect e) resolved_items;
  Option.iter collect having;
  List.iter
    (fun (a, arg) ->
      ignore a;
      match arg with
      | Some arg when Expr.contains_agg arg -> err "nested aggregates"
      | _ -> ())
    !aggs;
  (* arguments computed in the lower select *)
  let arg_outs = ref [] in
  let arg_col arg =
    match group_col_of arg with
    | Some n -> n
    | None -> (
        match
          List.find_map
            (fun (n, e) -> if Expr.equal_norm e arg then Some n else None)
            !arg_outs
        with
        | Some n -> n
        | None ->
            let taken = List.map fst grouping_outs @ List.map fst !arg_outs in
            let proposal =
              match arg with
              | Expr.Col qr -> spelling r qr
              | _ -> Printf.sprintf "a%d" (List.length !arg_outs + 1)
            in
            let n = uniquify taken proposal in
            arg_outs := !arg_outs @ [ (n, arg) ];
            n)
  in
  let agg_apps =
    List.map
      (fun (a, arg) ->
        let app =
          match arg with
          | None -> { Box.agg = a; arg = None }
          | Some arg -> { Box.agg = a; arg = Some (arg_col arg) }
        in
        ((a, arg), app))
      !aggs
  in
  (* scalar-subquery columns referenced above the GROUP BY must be routed
     through the lower select and (being per-query constants) silently join
     the grouping columns — mirroring the paper's Q10/NewQ10 *)
  let quants = List.map (fun b -> b.b_quant) bindings @ r.extra_quants in
  let scalar_quant_ids =
    List.filter_map
      (fun q -> if q.Box.q_kind = Box.Scalar then Some q.Box.q_id else None)
      r.extra_quants
  in
  let scalar_outs = ref [] in
  let scalar_route = ref [] in
  let rec collect_scalar_refs e =
    match e with
    | Expr.Agg (_, _) -> () (* scalar refs inside agg args flow via arg_outs *)
    | Expr.Col ({ Box.quant; col } as qr) when List.mem quant scalar_quant_ids
      ->
        if not (List.mem_assoc qr !scalar_route) then begin
          let taken =
            List.map fst grouping_outs
            @ List.map fst !arg_outs
            @ List.map fst !scalar_outs
          in
          let n = uniquify taken col in
          scalar_outs := !scalar_outs @ [ (n, Expr.Col qr) ];
          scalar_route := (qr, n) :: !scalar_route
        end
    | e -> List.iter collect_scalar_refs (Expr.children e)
  in
  List.iter (fun (_, e) -> collect_scalar_refs e) resolved_items;
  Option.iter collect_scalar_refs having;
  (* aggregate output naming: use a select-item alias when the item is
     exactly this aggregate *)
  let agg_outs =
    List.fold_left
      (fun acc ((a, arg), app) ->
        let taken =
          List.map fst grouping_outs
          @ List.map fst !arg_outs
          @ List.map fst !scalar_outs
          @ List.map (fun (_, n, _) -> n) acc
        in
        let alias =
          List.find_map
            (fun (it, re) ->
              match (it.A.item_alias, re) with
              | Some al, Expr.Agg (a', arg') when a' = a -> (
                  match (arg, arg') with
                  | None, None -> Some al
                  | Some x, Some y when Expr.equal_norm x y -> Some al
                  | _ -> None)
              | _ -> None)
            resolved_items
        in
        let proposal =
          match alias with
          | Some al -> al
          | None ->
              String.lowercase_ascii (Expr.agg_fn_to_string a.Expr.fn)
        in
        acc @ [ ((a, arg), uniquify taken proposal, app) ])
      [] agg_apps
  in
  (* build boxes *)
  let lower_outs = grouping_outs @ !arg_outs @ !scalar_outs in
  let lower_id =
    new_box st
      (Box.Select { sel_quants = quants; sel_preds = where_preds; sel_outs = lower_outs })
  in
  let gquant = new_quant st lower_id Box.Foreach in
  (* grouping structure over column names; scalar-subquery outputs referenced
     above the GROUP BY are implicitly added as grouping columns (they are
     per-query constants), mirroring the paper's Q10/NewQ10. *)
  let scalar_cols = List.map fst !scalar_outs in
  let name_sets =
    List.map
      (fun set ->
        let names =
          List.map
            (fun e ->
              match group_col_of e with Some n -> n | None -> assert false)
            set
        in
        names @ List.filter (fun c -> not (List.mem c names)) scalar_cols)
      gsets
  in
  let name_sets = if name_sets = [] then [ scalar_cols ] else name_sets in
  let grouping =
    match name_sets with
    | [ one ] -> Box.Simple one
    | many -> Box.Gsets many
  in
  let group_id =
    new_box st
      (Box.Group
         {
           grp_quant = gquant;
           grp_grouping = grouping;
           grp_aggs = List.map (fun (_, n, app) -> (n, app)) agg_outs;
         })
  in
  let uquant = new_quant st group_id Box.Foreach in
  (* substitute grouping expressions and aggregates in an upper expression *)
  let group_union_cols = Box.grouping_union grouping in
  let rec to_upper e =
    match group_col_of e with
    | Some n when List.mem n group_union_cols ->
        Expr.Col { Box.quant = uquant.Box.q_id; col = n }
    | _ -> (
        match e with
        | Expr.Agg (a, arg) -> (
            match
              List.find_map
                (fun ((a', arg'), n, _) ->
                  if
                    a' = a
                    &&
                    match (arg, arg') with
                    | None, None -> true
                    | Some x, Some y -> Expr.equal_norm x y
                    | _ -> false
                  then Some n
                  else None)
                agg_outs
            with
            | Some n -> Expr.Col { Box.quant = uquant.Box.q_id; col = n }
            | None -> assert false)
        | Expr.Col qr when List.mem_assoc qr !scalar_route ->
            Expr.Col
              { Box.quant = uquant.Box.q_id; col = List.assoc qr !scalar_route }
        | Expr.Col { Box.col; _ } ->
            err "column %s must appear in the GROUP BY clause" col
        | Expr.Const v -> Expr.Const v
        | e -> Expr.with_children e (List.map to_upper (Expr.children e)))
  in
  let upper_outs, _ =
    List.fold_left
      (fun (outs, i) (it, e) ->
        let name = output_name_of_item (List.map fst outs) i it e in
        (outs @ [ (name, to_upper e) ], i + 1))
      ([], 0) resolved_items
  in
  let upper_preds =
    match having with None -> [] | Some h -> split_conjuncts (to_upper h)
  in
  new_box st
    (Box.Select { sel_quants = [ uquant ]; sel_preds = upper_preds; sel_outs = upper_outs })

(* ------------------------------------------------------------------ *)

let build cat (q : A.query) =
  let st = { g = Graph.empty; cat; base_cache = [] } in
  let root = build_block st q ~top:true in
  let g = Graph.set_root st.g root in
  let root_cols = Box.output_cols (Graph.box g root) in
  let order_by =
    List.map
      (fun (e, asc) ->
        let col =
          match e with
          | A.Ref (None, c) -> List.find_opt (fun rc -> norm rc = norm c) root_cols
          | A.Lit (Data.Value.Int i) when i >= 1 && i <= List.length root_cols ->
              Some (List.nth root_cols (i - 1))
          | _ -> None
        in
        match col with
        | Some c -> (c, asc)
        | None -> err "ORDER BY must reference an output column name or position")
      q.A.order_by
  in
  Graph.set_presentation g { Graph.order_by; limit = q.A.limit }

let output_columns g = Box.output_cols (Graph.box g (Graph.root g))
