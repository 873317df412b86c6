(* CREATE-SUMMARY-TABLE-time linter.

   The rewrite engine can only use a summary table if its definition keeps
   enough information around for the compensation rules of paper sections
   4.2 and 5.1: re-grouping needs COUNT star (rules (b)/(d)), AVG can only
   be re-derived alongside a COUNT (rule (e)), DISTINCT aggregates cannot
   be re-aggregated at all, and grouping-sets summaries distinguish their
   cuboids by NULLness of the rolled-up keys. This linter warns, at
   definition time, about summaries that will silently fail to match
   later. Codes:

     L101 avg-without-count          AVG stored without COUNT star or a
                                     COUNT over the same argument
     L102 distinct-agg               a DISTINCT aggregate blocks every
                                     re-aggregation rule
     L103 missing-count-star         grouped summary without COUNT star
     L104 grouping-sets-nullable-key grouping sets over a nullable key
                                     with no way to tell a rolled-up row
                                     from a genuine NULL group (sect. 5.1)
     L105 overlapping-summary        same base-table footprint and
                                     grouping as an existing summary
     L106 not-incrementally-maintainable  (caller-supplied verdict)

   Diagnostics are advisory: CREATE SUMMARY TABLE still succeeds. *)

module B = Qgm.Box
module E = Qgm.Expr
module G = Qgm.Graph

type diag = { d_code : string; d_slug : string; d_msg : string }

let m_diags = Obs.Metrics.counter "lint.advisor.diags"

let render d = Printf.sprintf "%s %s: %s" d.d_code d.d_slug d.d_msg

(* Base-table footprint, the same notion Plancache.Candidates indexes on:
   the sorted set of base tables reachable from the root. *)
let footprint g =
  List.sort_uniq compare
    (List.filter_map
       (fun id ->
         match (G.box g id).B.body with
         | B.Base { bt_table; _ } -> Some bt_table
         | _ -> None)
       (G.base_leaves g (G.root g)))

(* The topmost GROUP BY box reachable from the root, if any. *)
let top_group g =
  let rec find id =
    let b = G.box g id in
    match b.B.body with
    | B.Group grp -> Some (b.B.id, grp)
    | B.Select _ | B.Union _ -> (
        let rec first = function
          | [] -> None
          | c :: rest -> ( match find c with Some x -> Some x | None -> first rest)
        in
        first (B.children_ids b))
    | B.Base _ -> None
  in
  find (G.root g)

let grouping_key g =
  match top_group g with
  | None -> None
  | Some (_, grp) ->
      Some (List.sort compare (B.grouping_union grp.B.grp_grouping))

(* Is a grouping column nullable in the base table it comes from? The
   grouping keys of a summary are child columns of the group box; chase
   them down to base tables through select outputs when they are simple
   column passthroughs. *)
let col_nullable cat g box_id col =
  let rec chase box_id col =
    let b = G.box g box_id in
    match b.B.body with
    | B.Base { bt_table; _ } -> (
        match Catalog.find_table cat bt_table with
        | None -> false
        | Some tbl -> (
            match Catalog.find_column tbl col with
            | Some c -> c.Catalog.nullable
            | None -> false))
    | B.Select s -> (
        match List.assoc_opt col s.B.sel_outs with
        | Some (E.Col { B.quant; col = c }) -> (
            match List.find_opt (fun q -> q.B.q_id = quant) s.B.sel_quants with
            | Some q -> chase q.B.q_box c
            | None -> false)
        | _ -> false)
    | B.Group grp ->
        if List.mem col (B.grouping_union grp.B.grp_grouping) then chase grp.B.grp_quant.B.q_box col
        else false
    | B.Union _ -> false
  in
  chase box_id col

let lint ?(existing = []) ?incremental cat g =
  let diags = ref [] in
  let push code slug fmt =
    Format.kasprintf
      (fun msg -> diags := { d_code = code; d_slug = slug; d_msg = msg } :: !diags)
      fmt
  in
  (match top_group g with
  | None -> ()
  | Some (_, grp) ->
      let aggs = grp.B.grp_aggs in
      let has_count_star =
        List.exists (fun (_, a) -> a.B.agg.E.fn = E.Count_star) aggs
      in
      let has_count_of arg =
        List.exists
          (fun (_, a) ->
            a.B.agg.E.fn = E.Count && (not a.B.agg.E.distinct)
            && (match a.B.arg with
               | Some c -> c = arg
               | None -> false))
          aggs
      in
      List.iter
        (fun (n, a) ->
          (match (a.B.agg.E.fn, a.B.arg) with
          | E.Avg, Some arg when (not has_count_star) && not (has_count_of arg)
            ->
              push "L101" "avg-without-count"
                "%s stores AVG(%s) but no COUNT star or COUNT(%s); re-grouping \
                 rule (e) cannot re-derive the average at a coarser \
                 granularity"
                n arg arg
          | _ -> ());
          if a.B.agg.E.distinct then
            push "L102" "distinct-agg"
              "%s stores a DISTINCT aggregate; no re-aggregation rule \
               (a)-(g) applies, so only exact-granularity queries can use \
               this summary"
              n)
        aggs;
      if not has_count_star then
        push "L103" "missing-count-star"
          "no COUNT star column is stored; re-grouping (rules (b)/(d)), \
           delete folding and incremental maintenance all need the group \
           cardinality";
      (match grp.B.grp_grouping with
      | B.Simple _ -> ()
      | B.Gsets sets ->
          let union = B.grouping_union grp.B.grp_grouping in
          let rolled_up c =
            List.exists
              (fun set -> not (List.mem c set))
              sets
          in
          List.iter
            (fun c ->
              if rolled_up c
                 && col_nullable cat g grp.B.grp_quant.B.q_box c
              then
                push "L104" "grouping-sets-nullable-key"
                  "grouping sets roll up nullable column %s; a rolled-up \
                   row is indistinguishable from a genuine NULL group \
                   without a grouping id (section 5.1)"
                  c)
            union));
  (* L105: same footprint and grouping as an existing summary, unless the
     prover shows the two restriction ranges disjoint: such summaries are
     complementary shards of one logical summary, not redundant. *)
  let fp = footprint g and key = grouping_key g in
  List.iter
    (fun (name, g') ->
      if footprint g' = fp && grouping_key g' = key then
        match (Prove.disjoint_graphs ~cat g g').Prove.pc_status with
        | Prove.Proved -> ()
        | Prove.Unknown _ ->
            push "L105" "overlapping-summary"
              "same base-table footprint and grouping as existing summary \
               %s, and their restriction ranges are not provably disjoint; \
               one of the two is likely redundant"
              name)
    existing;
  (match incremental with
  | Some false ->
      push "L106" "not-incrementally-maintainable"
        "definition shape is outside the incremental-maintenance class; \
         base-table DML will mark this summary stale until the next \
         REFRESH"
  | Some true | None -> ());
  let ds = List.rev !diags in
  Obs.Metrics.add m_diags (List.length ds);
  ds
