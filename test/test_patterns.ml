(* Per-pattern unit tests for the match function, on small star-schema data.
   Each case asserts both the match decision and (for positive cases) that
   the rewritten query returns the same bag of rows. *)

open Helpers

let star_tables =
  lazy
    (Workload.Star_schema.generate
       {
         Workload.Star_schema.default_params with
         n_custs = 4;
         trans_per_acct_year = 25;
         n_locs = 20;
       })

let star_db =
  lazy
    (Engine.Db.of_tables
       (Workload.Star_schema.catalog ())
       (Lazy.force star_tables))

(* One query/summary pair and its expected match decision. The match
   golden (Test_match_golden) replays every pair below. *)
type pair = { rewrite : bool; query : string; ast : string }

let pair ~rewrite ~query ~ast () = { rewrite; query; ast }

let expect { rewrite; query; ast } =
  let db = Lazy.force star_db in
  let rewritten, equal = rewrite_check db ~query ~ast in
  Alcotest.(check bool) "rewrite decision" rewrite rewritten;
  if rewritten then Alcotest.(check bool) "results equal" true equal

(* ---------------- 4.1.1: SELECT/SELECT with exact child matches ------ *)

let test_identical_selects =
  [
    pair ~rewrite:true
      ~query:"select tid, qty from Trans where disc > 0.1"
      ~ast:"select tid, qty, price from Trans where disc > 0.1"
      ()
  ]

let test_query_pred_derivable =
  (* the subsumee's extra predicate is applied as compensation *)
  [
    pair ~rewrite:true
      ~query:"select tid from Trans where disc > 0.1 and price > 100"
      ~ast:"select tid, price from Trans where disc > 0.1"
      ()
  ]

let test_query_pred_not_derivable =
  (* price is not preserved by the AST: the extra predicate cannot be
     compensated *)
  [
    pair ~rewrite:false
      ~query:"select tid from Trans where disc > 0.1 and price > 100"
      ~ast:"select tid, qty from Trans where disc > 0.1"
      ()
  ]

let test_ast_pred_too_strong =
  (* the AST filtered away rows the query needs *)
  [
    pair ~rewrite:false
      ~query:"select tid from Trans where disc > 0.05"
      ~ast:"select tid from Trans where disc > 0.1"
      ()
  ]

let test_subsumption_relaxed_ast_pred =
  (* AST keeps more rows (disc > 0.05 subsumes disc > 0.1); the stricter
     query predicate is re-applied on top *)
  [
    pair ~rewrite:true
      ~query:"select tid, disc from Trans where disc > 0.1"
      ~ast:"select tid, disc from Trans where disc > 0.05"
      ()
  ]

let test_rejoin_child =
  (* PGroup only appears in the query: it is rejoined *)
  [
    pair ~rewrite:true
      ~query:
        "select tid, pgname from Trans, PGroup where fpgid = pgid and disc > 0.1"
      ~ast:"select tid, fpgid from Trans where disc > 0.1"
      ()
  ]

let test_extra_child_lossless =
  (* Loc only appears in the AST, joined on its key through declared RI *)
  [
    pair ~rewrite:true
      ~query:"select tid, qty from Trans where disc > 0.1"
      ~ast:"select tid, qty, country from Trans, Loc where flid = lid and disc > 0.1"
      ()
  ]

let test_extra_child_with_filter_is_lossy =
  [
    pair ~rewrite:false
      ~query:"select tid, qty from Trans"
      ~ast:
        "select tid, qty from Trans, Loc where flid = lid and country = 'USA'"
      ()
  ]

let test_extra_child_non_key_join_is_lossy =
  (* joining the extra child on a non-key column may duplicate rows *)
  [
    pair ~rewrite:false
      ~query:"select tid from Trans"
      ~ast:"select tid from Trans, Loc where flid = lid and lid = tid"
      ()
  ]

let test_column_equivalence =
  (* aid is derivable from faid thanks to the faid = aid join predicate *)
  [
    pair ~rewrite:true ~query:Workload.Paper_queries.q2
      ~ast:Workload.Paper_queries.ast2 ()
  ]

let test_derivation_of_products =
  (* qty*price*(1-disc) from value = qty*price and disc *)
  [
    pair ~rewrite:true
      ~query:"select tid, qty * price * (1 - disc) as amt from Trans"
      ~ast:"select tid, disc, qty * price as value from Trans"
      ()
  ]

let test_select_missing_output =
  [
    pair ~rewrite:false
      ~query:"select tid, qty from Trans"
      ~ast:"select tid, price from Trans"
      ()
  ]

(* ---------------- 4.1.2 / 4.2.1: GROUP BY patterns ------------------ *)

let test_group_exact =
  [
    pair ~rewrite:true
      ~query:"select flid, count(*) as c from Trans group by flid"
      ~ast:"select flid, count(*) as c, sum(qty) as q from Trans group by flid"
      ()
  ]

let test_regroup_count_star =
  [
    pair ~rewrite:true
      ~query:"select flid, count(*) as c from Trans group by flid"
      ~ast:
        "select flid, year(date) as y, count(*) as c from Trans group by flid, \
         year(date)"
      ()
  ]

let test_regroup_count_arg =
  [
    pair ~rewrite:true
      ~query:"select flid, count(qty) as c from Trans group by flid"
      ~ast:
        "select flid, year(date) as y, count(qty) as c from Trans group by \
         flid, year(date)"
      ()
  ]

let test_regroup_count_via_count_star_nonnull =
  (* COUNT(qty) with qty non-nullable can be derived from COUNT star *)
  [
    pair ~rewrite:true
      ~query:"select flid, count(qty) as c from Trans group by flid"
      ~ast:
        "select flid, year(date) as y, count(*) as c from Trans group by flid, \
         year(date)"
      ()
  ]

let test_regroup_sum =
  [
    pair ~rewrite:true
      ~query:"select flid, sum(qty) as q from Trans group by flid"
      ~ast:
        "select flid, year(date) as y, sum(qty) as q from Trans group by flid, \
         year(date)"
      ()
  ]

let test_regroup_sum_of_grouping_col =
  (* rule (c) second form: SUM(y) where y is an AST grouping column becomes
     SUM(y * cnt) *)
  [
    pair ~rewrite:true
      ~query:"select flid, sum(qty) as q from Trans group by flid"
      ~ast:"select flid, qty, count(*) as cnt from Trans group by flid, qty"
      ()
  ]

let test_regroup_minmax =
  [
    pair ~rewrite:true
      ~query:"select flid, min(price) as mn, max(price) as mx from Trans group by flid"
      ~ast:
        "select flid, year(date) as y, min(price) as mn, max(price) as mx from \
         Trans group by flid, year(date)"
      ()
  ]

let test_regroup_max_of_grouping_col =
  [
    pair ~rewrite:true
      ~query:"select flid, max(qty) as mx from Trans group by flid"
      ~ast:"select flid, qty, count(*) as cnt from Trans group by flid, qty"
      ()
  ]

let test_regroup_avg_decomposition =
  [
    pair ~rewrite:true
      ~query:"select flid, avg(qty) as a from Trans group by flid"
      ~ast:
        "select flid, year(date) as y, sum(qty) as s, count(qty) as c from \
         Trans group by flid, year(date)"
      ()
  ]

let test_avg_not_derivable_without_sum =
  [
    pair ~rewrite:false
      ~query:"select flid, avg(qty) as a from Trans group by flid"
      ~ast:
        "select flid, year(date) as y, count(*) as c from Trans group by flid, \
         year(date)"
      ()
  ]

let test_count_distinct_exact_rule_f =
  (* AST groups by exactly the query keys plus the counted column: plain
     COUNT suffices (paper rule f) *)
  [
    pair ~rewrite:true
      ~query:"select flid, count(distinct faid) as c from Trans group by flid"
      ~ast:"select flid, faid, count(*) as cnt from Trans group by flid, faid"
      ()
  ]

let test_count_distinct_general =
  (* extra grouping column: needs COUNT(DISTINCT) in the compensation *)
  [
    pair ~rewrite:true
      ~query:"select flid, count(distinct faid) as c from Trans group by flid"
      ~ast:
        "select flid, faid, year(date) as y, count(*) as cnt from Trans group \
         by flid, faid, year(date)"
      ()
  ]

let test_count_distinct_not_derivable =
  [
    pair ~rewrite:false
      ~query:"select flid, count(distinct faid) as c from Trans group by flid"
      ~ast:
        "select flid, year(date) as y, count(*) as cnt from Trans group by \
         flid, year(date)"
      ()
  ]

let test_sum_distinct =
  [
    pair ~rewrite:true
      ~query:"select flid, sum(distinct qty) as s from Trans group by flid"
      ~ast:"select flid, qty, count(*) as cnt from Trans group by flid, qty"
      ()
  ]

let test_sum_distinct_not_from_partial_sums =
  (* partial non-distinct SUMs cannot answer SUM(DISTINCT) *)
  [
    pair ~rewrite:false
      ~query:"select flid, sum(distinct qty) as s from Trans group by flid"
      ~ast:
        "select flid, year(date) as y, sum(qty) as s from Trans group by flid, \
         year(date)"
      ()
  ]

let test_finer_query_grouping_no_match =
  (* the query groups finer than the AST: cannot reconstruct *)
  [
    pair ~rewrite:false
      ~query:
        "select flid, year(date) as y, count(*) as c from Trans group by flid, \
         year(date)"
      ~ast:"select flid, count(*) as c from Trans group by flid"
      ()
  ]

let test_pullup_condition_violated =
  (* the query's WHERE references a column the AST aggregated away *)
  [
    pair ~rewrite:false
      ~query:
        "select flid, count(*) as c from Trans where price > 100 group by flid"
      ~ast:
        "select flid, year(date) as y, count(*) as c from Trans group by flid, \
         year(date)"
      ()
  ]

let test_pullup_condition_satisfied =
  (* same filter, but the filter column is an AST grouping column *)
  [
    pair ~rewrite:true
      ~query:
        "select flid, count(*) as c from Trans where qty > 2 group by flid"
      ~ast:"select flid, qty, count(*) as c from Trans group by flid, qty"
      ()
  ]

let test_group_with_rejoin_one_sided =
  (* Figure 8 shape: 1:N rejoin avoids regrouping; verified by equality *)
  [
    pair ~rewrite:true ~query:Workload.Paper_queries.q7
      ~ast:Workload.Paper_queries.ast7 ()
  ]

let test_having_derived =
  [
    pair ~rewrite:true
      ~query:
        "select flid, count(*) as c from Trans group by flid having count(*) > 10"
      ~ast:
        "select flid, year(date) as y, count(*) as c from Trans group by flid, \
         year(date)"
      ()
  ]

(* ---------------- cube patterns (5.1 / 5.2) -------------------------- *)

let test_having_subsumption =
  (* footnote 4 end to end: the AST's weaker HAVING keeps every group the
     query needs; the stricter query HAVING is re-applied on top *)
  [
    pair ~rewrite:true
      ~query:
        "select flid, count(*) as c from Trans group by flid having count(*) > 40"
      ~ast:
        "select flid, count(*) as c from Trans group by flid having count(*) > 10"
      ()
  ]

let test_having_too_strong_rejected =
  [
    pair ~rewrite:false
      ~query:
        "select flid, count(*) as c from Trans group by flid having count(*) > 10"
      ~ast:
        "select flid, count(*) as c from Trans group by flid having count(*) > 40"
      ()
  ]

let test_cube_slice_choice =
  (* must slice the (flid, year) cuboid, not the finer one *)
  [
    pair ~rewrite:true
      ~query:
        "select flid, year(date) as y, count(*) as c from Trans group by \
         flid, year(date)"
      ~ast:Workload.Paper_queries.ast11 ();
  ]

let test_cube_no_covering_cuboid =
  [
    pair ~rewrite:false
      ~query:"select faid, month(date) as m, count(*) as c from Trans group by faid, month(date)"
      ~ast:Workload.Paper_queries.ast11 ()
  ]

let test_cube_query_vs_simple_ast =
  (* multidimensional query over a simple AST: regroup with grouping sets *)
  [
    pair ~rewrite:true
      ~query:
        "select flid, year(date) as y, count(*) as c from Trans group by \
         grouping sets((flid), (year(date)))"
      ~ast:
        "select flid, year(date) as y, count(*) as c from Trans group by flid, \
         year(date)"
      ()
  ]

let test_rollup_query_vs_cube_ast =
  [
    pair ~rewrite:true
      ~query:
        "select flid, year(date) as y, count(*) as c from Trans group by \
         rollup(flid, year(date))"
      ~ast:
        "select flid, year(date) as y, count(*) as c from Trans group by \
         grouping sets((flid, year(date)), (flid), ())"
      ()
  ]

let test_count_distinct_under_gsets_regroup =
  (* regression (found by the soundness fuzzer): under a grouping-sets
     regroup, rule f's COUNT(y) shortcut is invalid for the coarser
     cuboids — the general COUNT(DISTINCT y) form must be used *)
  [
    pair ~rewrite:true
      ~query:
        "select faid, year(date) as y, sum(qty) as s, count(distinct faid) as \
         d from Trans group by grouping sets((faid, year(date)), (faid), ())"
      ~ast:
        "select faid, year(date) as y, count(*) as c, sum(qty) as s from \
         Trans group by faid, year(date)"
      ()
  ]

(* ---------------- expression forms ----------------------------------- *)

let test_case_expression_derivation =
  [
    pair ~rewrite:true
      ~query:
        "select tid, case when disc > 0.1 then 'deal' else 'full' end as kind \
         from Trans"
      ~ast:"select tid, disc from Trans"
      ()
  ]

let test_between_and_in_desugar =
  [
    pair ~rewrite:true
      ~query:"select tid from Trans where qty between 2 and 4"
      ~ast:"select tid from Trans where qty >= 2 and qty <= 4"
      ();
    pair ~rewrite:true
      ~query:"select tid from Trans where qty in (1, 3)"
      ~ast:"select tid from Trans where qty = 1 or qty = 3"
      ();
  ]

let test_commuted_predicates_match =
  [
    pair ~rewrite:true
      ~query:"select tid from Trans where 100 < price"
      ~ast:"select tid from Trans where price > 100"
      ()
  ]

let test_arith_normalization_match =
  [
    pair ~rewrite:true
      ~query:"select tid, price * qty as v from Trans"
      ~ast:"select tid, qty * price as v from Trans"
      ()
  ]

let test_grand_total_cuboid_slice =
  (* section 5: the empty grouping set materializes the grand total; a
     whole-table aggregate slices it with IS NULL on every union column *)
  [
    pair ~rewrite:true
      ~query:"select count(*) as c from Trans"
      ~ast:
        "select flid, year(date) as y, count(*) as c from Trans group by \
         grouping sets((flid, year(date)), (flid), ())"
      ()
  ]

let test_grand_total_derived_by_regroup =
  (* no empty cuboid: re-sum the finest one instead *)
  [
    pair ~rewrite:true
      ~query:"select count(*) as c, sum(qty) as q from Trans"
      ~ast:"select flid, count(*) as c, sum(qty) as q from Trans group by flid"
      ()
  ]

let test_grand_total_having =
  [
    pair ~rewrite:true
      ~query:"select sum(qty) as q from Trans having count(*) > 1"
      ~ast:"select flid, count(*) as c, sum(qty) as q from Trans group by flid"
      ()
  ]

(* ---------------- DISTINCT over a plain summary ---------------------- *)

let test_distinct_over_plain_summary =
  (* the DISTINCT's key-only GROUP BY runs over the summary's rows *)
  [
    pair ~rewrite:true
      ~query:"select distinct flid from Trans"
      ~ast:"select flid from Trans"
      ()
  ]

let cases =
  [
    ("identical selects", test_identical_selects);
    ("query pred derivable", test_query_pred_derivable);
    ("query pred not derivable", test_query_pred_not_derivable);
    ("ast pred too strong", test_ast_pred_too_strong);
    ("subsumed ast pred", test_subsumption_relaxed_ast_pred);
    ("rejoin child", test_rejoin_child);
    ("lossless extra child", test_extra_child_lossless);
    ("lossy extra child (filter)", test_extra_child_with_filter_is_lossy);
    ("lossy extra child (non-key join)", test_extra_child_non_key_join_is_lossy);
    ("column equivalence", test_column_equivalence);
    ("product derivation", test_derivation_of_products);
    ("missing output", test_select_missing_output);
    ("group exact", test_group_exact);
    ("regroup count(*)", test_regroup_count_star);
    ("regroup count(x)", test_regroup_count_arg);
    ("count via non-null count", test_regroup_count_via_count_star_nonnull);
    ("regroup sum", test_regroup_sum);
    ("sum of grouping column", test_regroup_sum_of_grouping_col);
    ("regroup min/max", test_regroup_minmax);
    ("max of grouping column", test_regroup_max_of_grouping_col);
    ("avg decomposition", test_regroup_avg_decomposition);
    ("avg needs sum", test_avg_not_derivable_without_sum);
    ("count distinct rule f", test_count_distinct_exact_rule_f);
    ("count distinct general", test_count_distinct_general);
    ("count distinct not derivable", test_count_distinct_not_derivable);
    ("sum distinct", test_sum_distinct);
    ("sum distinct needs distinct source", test_sum_distinct_not_from_partial_sums);
    ("finer grouping rejected", test_finer_query_grouping_no_match);
    ("pullup violated", test_pullup_condition_violated);
    ("pullup satisfied", test_pullup_condition_satisfied);
    ("1:N rejoin", test_group_with_rejoin_one_sided);
    ("having derived", test_having_derived);
    ("having subsumption", test_having_subsumption);
    ("having too strong", test_having_too_strong_rejected);
    ("cube slice", test_cube_slice_choice);
    ("no covering cuboid", test_cube_no_covering_cuboid);
    ("cube query vs simple ast", test_cube_query_vs_simple_ast);
    ("rollup vs grouping sets", test_rollup_query_vs_cube_ast);
    ("grand total cuboid slice", test_grand_total_cuboid_slice);
    ("grand total via regroup", test_grand_total_derived_by_regroup);
    ("grand total having", test_grand_total_having);
    ("count distinct under gsets regroup", test_count_distinct_under_gsets_regroup);
    ("case expressions", test_case_expression_derivation);
    ("between/in desugar", test_between_and_in_desugar);
    ("commuted predicates", test_commuted_predicates_match);
    ("arithmetic normalization", test_arith_normalization_match);
    ("distinct over plain summary", test_distinct_over_plain_summary);
  ]

(* Every rejected pair says why under EXPLAIN REWRITE: the summary's line
   is followed by at least one typed reason, or carries one itself. *)
let test_rejections_explained () =
  let module Sess = Mvstore.Session in
  let sn =
    Sess.of_tables (Workload.Star_schema.catalog ()) (Lazy.force star_tables)
  in
  List.iter
    (fun (name, pairs) ->
      List.iter
        (fun { rewrite; query; ast } ->
          if not rewrite then begin
            ignore (Sess.exec_sql sn ("CREATE SUMMARY TABLE mv0 AS " ^ ast));
            let plan =
              match Sess.exec_sql sn ("EXPLAIN REWRITE " ^ query) with
              | [ Sess.Plan p ] -> p
              | _ -> Alcotest.failf "%s: expected an EXPLAIN REWRITE plan" name
            in
            ignore (Sess.exec_sql sn "DROP SUMMARY TABLE mv0");
            let rec explained = function
              | l :: rest when l = "  mv0: no match" -> (
                  match rest with
                  | r :: _ -> String.starts_with ~prefix:"    - " r
                  | [] -> false)
              | l :: rest ->
                  (String.starts_with ~prefix:"  mv0: " l
                  && l <> "  mv0: no match")
                  || explained rest
              | [] -> false
            in
            if not (explained (String.split_on_char '\n' plan)) then
              Alcotest.failf "%s: no rejection reason under EXPLAIN REWRITE:\n%s"
                name plan
          end)
        pairs)
    cases

let suite =
  List.map
    (fun (name, pairs) ->
      Alcotest.test_case name `Quick (fun () -> List.iter expect pairs))
    cases
  @ [
      Alcotest.test_case "rejections explained" `Quick
        test_rejections_explained;
    ]
