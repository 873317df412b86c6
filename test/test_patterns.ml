(* Per-pattern unit tests for the match function, on small star-schema data.
   Each case asserts both the match decision and (for positive cases) that
   the rewritten query returns the same bag of rows. *)

open Helpers

let star_db =
  lazy
    (let params =
       {
         Workload.Star_schema.default_params with
         n_custs = 4;
         trans_per_acct_year = 25;
         n_locs = 20;
       }
     in
     Engine.Db.of_tables
       (Workload.Star_schema.catalog ())
       (Workload.Star_schema.generate params))

let expect ?(name = "") ~rewrite ~query ~ast () =
  let db = Lazy.force star_db in
  let rewritten, equal = rewrite_check db ~query ~ast in
  Alcotest.(check bool) (name ^ " rewrite decision") rewrite rewritten;
  if rewritten then Alcotest.(check bool) (name ^ " results equal") true equal

(* ---------------- 4.1.1: SELECT/SELECT with exact child matches ------ *)

let test_identical_selects () =
  expect ~rewrite:true
    ~query:"select tid, qty from Trans where disc > 0.1"
    ~ast:"select tid, qty, price from Trans where disc > 0.1"
    ()

let test_query_pred_derivable () =
  (* the subsumee's extra predicate is applied as compensation *)
  expect ~rewrite:true
    ~query:"select tid from Trans where disc > 0.1 and price > 100"
    ~ast:"select tid, price from Trans where disc > 0.1"
    ()

let test_query_pred_not_derivable () =
  (* price is not preserved by the AST: the extra predicate cannot be
     compensated *)
  expect ~rewrite:false
    ~query:"select tid from Trans where disc > 0.1 and price > 100"
    ~ast:"select tid, qty from Trans where disc > 0.1"
    ()

let test_ast_pred_too_strong () =
  (* the AST filtered away rows the query needs *)
  expect ~rewrite:false
    ~query:"select tid from Trans where disc > 0.05"
    ~ast:"select tid from Trans where disc > 0.1"
    ()

let test_subsumption_relaxed_ast_pred () =
  (* AST keeps more rows (disc > 0.05 subsumes disc > 0.1); the stricter
     query predicate is re-applied on top *)
  expect ~rewrite:true
    ~query:"select tid, disc from Trans where disc > 0.1"
    ~ast:"select tid, disc from Trans where disc > 0.05"
    ()

let test_rejoin_child () =
  (* PGroup only appears in the query: it is rejoined *)
  expect ~rewrite:true
    ~query:
      "select tid, pgname from Trans, PGroup where fpgid = pgid and disc > 0.1"
    ~ast:"select tid, fpgid from Trans where disc > 0.1"
    ()

let test_extra_child_lossless () =
  (* Loc only appears in the AST, joined on its key through declared RI *)
  expect ~rewrite:true
    ~query:"select tid, qty from Trans where disc > 0.1"
    ~ast:"select tid, qty, country from Trans, Loc where flid = lid and disc > 0.1"
    ()

let test_extra_child_with_filter_is_lossy () =
  expect ~rewrite:false
    ~query:"select tid, qty from Trans"
    ~ast:
      "select tid, qty from Trans, Loc where flid = lid and country = 'USA'"
    ()

let test_extra_child_non_key_join_is_lossy () =
  (* joining the extra child on a non-key column may duplicate rows *)
  expect ~rewrite:false
    ~query:"select tid from Trans"
    ~ast:"select tid from Trans, Loc where flid = lid and lid = tid"
    ()

let test_column_equivalence () =
  (* aid is derivable from faid thanks to the faid = aid join predicate *)
  expect ~rewrite:true ~query:Workload.Paper_queries.q2
    ~ast:Workload.Paper_queries.ast2 ()

let test_derivation_of_products () =
  (* qty*price*(1-disc) from value = qty*price and disc *)
  expect ~rewrite:true
    ~query:"select tid, qty * price * (1 - disc) as amt from Trans"
    ~ast:"select tid, disc, qty * price as value from Trans"
    ()

let test_select_missing_output () =
  expect ~rewrite:false
    ~query:"select tid, qty from Trans"
    ~ast:"select tid, price from Trans"
    ()

(* ---------------- 4.1.2 / 4.2.1: GROUP BY patterns ------------------ *)

let test_group_exact () =
  expect ~rewrite:true
    ~query:"select flid, count(*) as c from Trans group by flid"
    ~ast:"select flid, count(*) as c, sum(qty) as q from Trans group by flid"
    ()

let test_regroup_count_star () =
  expect ~rewrite:true
    ~query:"select flid, count(*) as c from Trans group by flid"
    ~ast:
      "select flid, year(date) as y, count(*) as c from Trans group by flid, \
       year(date)"
    ()

let test_regroup_count_arg () =
  expect ~rewrite:true
    ~query:"select flid, count(qty) as c from Trans group by flid"
    ~ast:
      "select flid, year(date) as y, count(qty) as c from Trans group by \
       flid, year(date)"
    ()

let test_regroup_count_via_count_star_nonnull () =
  (* COUNT(qty) with qty non-nullable can be derived from COUNT star *)
  expect ~rewrite:true
    ~query:"select flid, count(qty) as c from Trans group by flid"
    ~ast:
      "select flid, year(date) as y, count(*) as c from Trans group by flid, \
       year(date)"
    ()

let test_regroup_sum () =
  expect ~rewrite:true
    ~query:"select flid, sum(qty) as q from Trans group by flid"
    ~ast:
      "select flid, year(date) as y, sum(qty) as q from Trans group by flid, \
       year(date)"
    ()

let test_regroup_sum_of_grouping_col () =
  (* rule (c) second form: SUM(y) where y is an AST grouping column becomes
     SUM(y * cnt) *)
  expect ~rewrite:true
    ~query:"select flid, sum(qty) as q from Trans group by flid"
    ~ast:"select flid, qty, count(*) as cnt from Trans group by flid, qty"
    ()

let test_regroup_minmax () =
  expect ~rewrite:true
    ~query:"select flid, min(price) as mn, max(price) as mx from Trans group by flid"
    ~ast:
      "select flid, year(date) as y, min(price) as mn, max(price) as mx from \
       Trans group by flid, year(date)"
    ()

let test_regroup_max_of_grouping_col () =
  expect ~rewrite:true
    ~query:"select flid, max(qty) as mx from Trans group by flid"
    ~ast:"select flid, qty, count(*) as cnt from Trans group by flid, qty"
    ()

let test_regroup_avg_decomposition () =
  expect ~rewrite:true
    ~query:"select flid, avg(qty) as a from Trans group by flid"
    ~ast:
      "select flid, year(date) as y, sum(qty) as s, count(qty) as c from \
       Trans group by flid, year(date)"
    ()

let test_avg_not_derivable_without_sum () =
  expect ~rewrite:false
    ~query:"select flid, avg(qty) as a from Trans group by flid"
    ~ast:
      "select flid, year(date) as y, count(*) as c from Trans group by flid, \
       year(date)"
    ()

let test_count_distinct_exact_rule_f () =
  (* AST groups by exactly the query keys plus the counted column: plain
     COUNT suffices (paper rule f) *)
  expect ~rewrite:true
    ~query:"select flid, count(distinct faid) as c from Trans group by flid"
    ~ast:"select flid, faid, count(*) as cnt from Trans group by flid, faid"
    ()

let test_count_distinct_general () =
  (* extra grouping column: needs COUNT(DISTINCT) in the compensation *)
  expect ~rewrite:true
    ~query:"select flid, count(distinct faid) as c from Trans group by flid"
    ~ast:
      "select flid, faid, year(date) as y, count(*) as cnt from Trans group \
       by flid, faid, year(date)"
    ()

let test_count_distinct_not_derivable () =
  expect ~rewrite:false
    ~query:"select flid, count(distinct faid) as c from Trans group by flid"
    ~ast:
      "select flid, year(date) as y, count(*) as cnt from Trans group by \
       flid, year(date)"
    ()

let test_sum_distinct () =
  expect ~rewrite:true
    ~query:"select flid, sum(distinct qty) as s from Trans group by flid"
    ~ast:"select flid, qty, count(*) as cnt from Trans group by flid, qty"
    ()

let test_sum_distinct_not_from_partial_sums () =
  (* partial non-distinct SUMs cannot answer SUM(DISTINCT) *)
  expect ~rewrite:false
    ~query:"select flid, sum(distinct qty) as s from Trans group by flid"
    ~ast:
      "select flid, year(date) as y, sum(qty) as s from Trans group by flid, \
       year(date)"
    ()

let test_finer_query_grouping_no_match () =
  (* the query groups finer than the AST: cannot reconstruct *)
  expect ~rewrite:false
    ~query:
      "select flid, year(date) as y, count(*) as c from Trans group by flid, \
       year(date)"
    ~ast:"select flid, count(*) as c from Trans group by flid"
    ()

let test_pullup_condition_violated () =
  (* the query's WHERE references a column the AST aggregated away *)
  expect ~rewrite:false
    ~query:
      "select flid, count(*) as c from Trans where price > 100 group by flid"
    ~ast:
      "select flid, year(date) as y, count(*) as c from Trans group by flid, \
       year(date)"
    ()

let test_pullup_condition_satisfied () =
  (* same filter, but the filter column is an AST grouping column *)
  expect ~rewrite:true
    ~query:
      "select flid, count(*) as c from Trans where qty > 2 group by flid"
    ~ast:"select flid, qty, count(*) as c from Trans group by flid, qty"
    ()

let test_group_with_rejoin_one_sided () =
  (* Figure 8 shape: 1:N rejoin avoids regrouping; verified by equality *)
  expect ~rewrite:true ~query:Workload.Paper_queries.q7
    ~ast:Workload.Paper_queries.ast7 ()

let test_having_derived () =
  expect ~rewrite:true
    ~query:
      "select flid, count(*) as c from Trans group by flid having count(*) > 10"
    ~ast:
      "select flid, year(date) as y, count(*) as c from Trans group by flid, \
       year(date)"
    ()

(* ---------------- cube patterns (5.1 / 5.2) -------------------------- *)

let test_having_subsumption () =
  (* footnote 4 end to end: the AST's weaker HAVING keeps every group the
     query needs; the stricter query HAVING is re-applied on top *)
  expect ~rewrite:true
    ~query:
      "select flid, count(*) as c from Trans group by flid having count(*) > 40"
    ~ast:
      "select flid, count(*) as c from Trans group by flid having count(*) > 10"
    ()

let test_having_too_strong_rejected () =
  expect ~rewrite:false
    ~query:
      "select flid, count(*) as c from Trans group by flid having count(*) > 10"
    ~ast:
      "select flid, count(*) as c from Trans group by flid having count(*) > 40"
    ()

let test_cube_slice_choice () =
  (* must slice the (flid, year) cuboid, not the finer one *)
  let db = Lazy.force star_db in
  let cat = Engine.Db.catalog db in
  let query =
    build cat "select flid, year(date) as y, count(*) as c from Trans group by flid, year(date)"
  in
  let ast = build cat Workload.Paper_queries.ast11 in
  match Astmatch.Navigator.find_matches cat ~query ~ast with
  | [] -> Alcotest.fail "expected a match"
  | _ :: _ -> ()

let test_cube_no_covering_cuboid () =
  expect ~rewrite:false
    ~query:"select faid, month(date) as m, count(*) as c from Trans group by faid, month(date)"
    ~ast:Workload.Paper_queries.ast11 ()

let test_cube_query_vs_simple_ast () =
  (* multidimensional query over a simple AST: regroup with grouping sets *)
  expect ~rewrite:true
    ~query:
      "select flid, year(date) as y, count(*) as c from Trans group by \
       grouping sets((flid), (year(date)))"
    ~ast:
      "select flid, year(date) as y, count(*) as c from Trans group by flid, \
       year(date)"
    ()

let test_rollup_query_vs_cube_ast () =
  expect ~rewrite:true
    ~query:
      "select flid, year(date) as y, count(*) as c from Trans group by \
       rollup(flid, year(date))"
    ~ast:
      "select flid, year(date) as y, count(*) as c from Trans group by \
       grouping sets((flid, year(date)), (flid), ())"
    ()

let test_count_distinct_under_gsets_regroup () =
  (* regression (found by the soundness fuzzer): under a grouping-sets
     regroup, rule f's COUNT(y) shortcut is invalid for the coarser
     cuboids — the general COUNT(DISTINCT y) form must be used *)
  expect ~rewrite:true
    ~query:
      "select faid, year(date) as y, sum(qty) as s, count(distinct faid) as \
       d from Trans group by grouping sets((faid, year(date)), (faid), ())"
    ~ast:
      "select faid, year(date) as y, count(*) as c, sum(qty) as s from \
       Trans group by faid, year(date)"
    ()

(* ---------------- expression forms ----------------------------------- *)

let test_case_expression_derivation () =
  expect ~rewrite:true
    ~query:
      "select tid, case when disc > 0.1 then 'deal' else 'full' end as kind \
       from Trans"
    ~ast:"select tid, disc from Trans"
    ()

let test_between_and_in_desugar () =
  (* BETWEEN and IN desugar to comparisons/ORs and must compare equal *)
  expect ~rewrite:true
    ~query:"select tid from Trans where qty between 2 and 4"
    ~ast:"select tid from Trans where qty >= 2 and qty <= 4"
    ();
  expect ~rewrite:true
    ~query:"select tid from Trans where qty in (1, 3)"
    ~ast:"select tid from Trans where qty = 1 or qty = 3"
    ()

let test_commuted_predicates_match () =
  expect ~rewrite:true
    ~query:"select tid from Trans where 100 < price"
    ~ast:"select tid from Trans where price > 100"
    ()

let test_arith_normalization_match () =
  expect ~rewrite:true
    ~query:"select tid, price * qty as v from Trans"
    ~ast:"select tid, qty * price as v from Trans"
    ()

let test_grand_total_cuboid_slice () =
  (* section 5: the empty grouping set materializes the grand total; a
     whole-table aggregate slices it with IS NULL on every union column *)
  expect ~rewrite:true
    ~query:"select count(*) as c from Trans"
    ~ast:
      "select flid, year(date) as y, count(*) as c from Trans group by \
       grouping sets((flid, year(date)), (flid), ())"
    ()

let test_grand_total_derived_by_regroup () =
  (* no empty cuboid: re-sum the finest one instead *)
  expect ~rewrite:true
    ~query:"select count(*) as c, sum(qty) as q from Trans"
    ~ast:"select flid, count(*) as c, sum(qty) as q from Trans group by flid"
    ()

let test_grand_total_having () =
  expect ~rewrite:true
    ~query:"select sum(qty) as q from Trans having count(*) > 1"
    ~ast:"select flid, count(*) as c, sum(qty) as q from Trans group by flid"
    ()

(* ---------------- DISTINCT over a plain summary ---------------------- *)

let test_distinct_over_plain_summary () =
  (* the DISTINCT's key-only GROUP BY runs over the summary's rows *)
  expect ~rewrite:true
    ~query:"select distinct flid from Trans"
    ~ast:"select flid from Trans"
    ()

let suite =
  [
    Alcotest.test_case "identical selects" `Quick test_identical_selects;
    Alcotest.test_case "query pred derivable" `Quick test_query_pred_derivable;
    Alcotest.test_case "query pred not derivable" `Quick
      test_query_pred_not_derivable;
    Alcotest.test_case "ast pred too strong" `Quick test_ast_pred_too_strong;
    Alcotest.test_case "subsumed ast pred" `Quick
      test_subsumption_relaxed_ast_pred;
    Alcotest.test_case "rejoin child" `Quick test_rejoin_child;
    Alcotest.test_case "lossless extra child" `Quick test_extra_child_lossless;
    Alcotest.test_case "lossy extra child (filter)" `Quick
      test_extra_child_with_filter_is_lossy;
    Alcotest.test_case "lossy extra child (non-key join)" `Quick
      test_extra_child_non_key_join_is_lossy;
    Alcotest.test_case "column equivalence" `Quick test_column_equivalence;
    Alcotest.test_case "product derivation" `Quick test_derivation_of_products;
    Alcotest.test_case "missing output" `Quick test_select_missing_output;
    Alcotest.test_case "group exact" `Quick test_group_exact;
    Alcotest.test_case "regroup count(*)" `Quick test_regroup_count_star;
    Alcotest.test_case "regroup count(x)" `Quick test_regroup_count_arg;
    Alcotest.test_case "count via non-null count" `Quick
      test_regroup_count_via_count_star_nonnull;
    Alcotest.test_case "regroup sum" `Quick test_regroup_sum;
    Alcotest.test_case "sum of grouping column" `Quick
      test_regroup_sum_of_grouping_col;
    Alcotest.test_case "regroup min/max" `Quick test_regroup_minmax;
    Alcotest.test_case "max of grouping column" `Quick
      test_regroup_max_of_grouping_col;
    Alcotest.test_case "avg decomposition" `Quick test_regroup_avg_decomposition;
    Alcotest.test_case "avg needs sum" `Quick test_avg_not_derivable_without_sum;
    Alcotest.test_case "count distinct rule f" `Quick
      test_count_distinct_exact_rule_f;
    Alcotest.test_case "count distinct general" `Quick test_count_distinct_general;
    Alcotest.test_case "count distinct not derivable" `Quick
      test_count_distinct_not_derivable;
    Alcotest.test_case "sum distinct" `Quick test_sum_distinct;
    Alcotest.test_case "sum distinct needs distinct source" `Quick
      test_sum_distinct_not_from_partial_sums;
    Alcotest.test_case "finer grouping rejected" `Quick
      test_finer_query_grouping_no_match;
    Alcotest.test_case "pullup violated" `Quick test_pullup_condition_violated;
    Alcotest.test_case "pullup satisfied" `Quick test_pullup_condition_satisfied;
    Alcotest.test_case "1:N rejoin" `Quick test_group_with_rejoin_one_sided;
    Alcotest.test_case "having derived" `Quick test_having_derived;
    Alcotest.test_case "having subsumption" `Quick test_having_subsumption;
    Alcotest.test_case "having too strong" `Quick test_having_too_strong_rejected;
    Alcotest.test_case "cube slice" `Quick test_cube_slice_choice;
    Alcotest.test_case "no covering cuboid" `Quick test_cube_no_covering_cuboid;
    Alcotest.test_case "cube query vs simple ast" `Quick
      test_cube_query_vs_simple_ast;
    Alcotest.test_case "rollup vs grouping sets" `Quick
      test_rollup_query_vs_cube_ast;
    Alcotest.test_case "grand total cuboid slice" `Quick
      test_grand_total_cuboid_slice;
    Alcotest.test_case "grand total via regroup" `Quick
      test_grand_total_derived_by_regroup;
    Alcotest.test_case "grand total having" `Quick test_grand_total_having;
    Alcotest.test_case "count distinct under gsets regroup" `Quick
      test_count_distinct_under_gsets_regroup;
    Alcotest.test_case "case expressions" `Quick test_case_expression_derivation;
    Alcotest.test_case "between/in desugar" `Quick test_between_and_in_desugar;
    Alcotest.test_case "commuted predicates" `Quick test_commuted_predicates_match;
    Alcotest.test_case "arithmetic normalization" `Quick
      test_arith_normalization_match;
    Alcotest.test_case "distinct over plain summary" `Quick
      test_distinct_over_plain_summary;
  ]
