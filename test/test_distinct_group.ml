(* Footnote 2: SELECT DISTINCT is built as a key-only GROUP BY, so
   DISTINCT and GROUP BY answer each other by the regrouping rules. *)

open Helpers

let star_db =
  lazy
    (Engine.Db.of_tables
       (Workload.Star_schema.catalog ())
       (Workload.Star_schema.generate
          {
            Workload.Star_schema.default_params with
            n_custs = 3;
            trans_per_acct_year = 20;
          }))

let expect ~rewrite ~query ~ast () =
  let db = Lazy.force star_db in
  let rewritten, equal = rewrite_check db ~query ~ast in
  Alcotest.(check bool) "rewrite decision" rewrite rewritten;
  if rewritten then Alcotest.(check bool) "results equal" true equal

let test_distinct_from_group () =
  expect ~rewrite:true
    ~query:"select distinct flid, faid from Trans"
    ~ast:"select flid, faid, count(*) as c from Trans group by flid, faid"
    ()

let test_distinct_from_group_with_filter () =
  expect ~rewrite:true
    ~query:"select distinct flid from Trans where flid > 5"
    ~ast:"select flid, count(*) as c from Trans group by flid"
    ()

let test_distinct_subset_of_keys_regroups () =
  (* a strict subset of the grouping set: regroup (flid, faid) by flid *)
  expect ~rewrite:true
    ~query:"select distinct flid from Trans"
    ~ast:"select flid, faid, count(*) as c from Trans group by flid, faid"
    ()

let test_distinct_filter_on_nonkey_rejected () =
  expect ~rewrite:false
    ~query:"select distinct flid from Trans where qty > 2"
    ~ast:"select flid, count(*) as c from Trans group by flid"
    ()

let test_keys_only_group_from_distinct () =
  expect ~rewrite:true
    ~query:"select distinct flid, faid from Trans"
    ~ast:"select distinct faid, flid from Trans"
    ()

let test_group_no_aggs_from_distinct () =
  (* GROUP BY with no aggregate outputs = DISTINCT *)
  let db = Lazy.force star_db in
  let rewritten, equal =
    rewrite_check db
      ~query:"select flid, faid from Trans group by flid, faid"
      ~ast:"select distinct flid, faid from Trans"
  in
  Alcotest.(check bool) "rewrite decision" true rewritten;
  Alcotest.(check bool) "results equal" true equal

let test_group_with_aggs_from_distinct_rejected () =
  expect ~rewrite:false
    ~query:"select flid, count(*) as c from Trans group by flid"
    ~ast:"select distinct flid from Trans"
    ()

(* A summary defined with DISTINCT is a key-only GROUP BY too: both
   spellings of a coarser query regroup it, and INSERTs fold into it. *)
module Sess = Mvstore.Session
module R = Data.Relation

let distinct_session () =
  let module W = Workload.Star_schema in
  let sn =
    Sess.of_tables (W.catalog ())
      (W.generate { W.default_params with n_custs = 3; trans_per_acct_year = 20 })
  in
  ignore (Sess.exec_sql sn "CREATE SUMMARY TABLE d AS SELECT DISTINCT flid, faid FROM Trans;");
  sn

let run ?config sn sql = Sess.run_query ?config sn (Sqlsyn.Parser.parse_query sql)

let test_distinct_summary_answers_both_spellings () =
  let sn = distinct_session () in
  let answer sql =
    let rel, steps = run sn sql in
    Alcotest.(check (list string)) ("answered from d: " ^ sql) [ "d" ]
      (List.map (fun st -> st.Astmatch.Rewrite.used_mv) steps);
    let base, _ = run ~config:(base_only sn) sn sql in
    Alcotest.(check bool) ("equals the base plan: " ^ sql) true (R.bag_equal_approx rel base);
    rel
  in
  let distinct = answer "SELECT DISTINCT flid FROM Trans" in
  let grouped = answer "SELECT flid FROM Trans GROUP BY flid" in
  Alcotest.(check bool) "both spellings agree" true (R.bag_equal_approx distinct grouped)

let test_distinct_summary_maintained () =
  let sn = distinct_session () in
  let fresh () = not (List.mem "d" (Mvstore.Store.stale (Sess.store sn))) in
  ignore
    (Sess.exec_sql sn
       "INSERT INTO Trans VALUES (900001, 1, 2, 3, DATE '1995-03-04', 2, 10.5, 0.05), \
        (900002, 2, 3, 4, DATE '1996-11-20', 1, 99.0, 0.0);");
  Alcotest.(check bool) "fresh after INSERT" true (fresh ());
  let db = Sess.db sn in
  let e = Option.get (Mvstore.Store.find (Sess.store sn) "d") in
  let again = Engine.Exec.run db e.Mvstore.Store.e_graph in
  Alcotest.(check bool) "equals its re-derivation" true
    (R.bag_equal_by_name again
       (R.project (Engine.Db.get_exn db "d") (Array.to_list (R.columns again))));
  (* with no COUNT-star, a key's last row leaving goes unseen *)
  ignore (Sess.exec_sql sn "DELETE FROM Trans WHERE tid = 900001;");
  Alcotest.(check bool) "stale after DELETE" false (fresh ())

let suite =
  [
    Alcotest.test_case "distinct from group" `Quick test_distinct_from_group;
    Alcotest.test_case "distinct from group + filter" `Quick
      test_distinct_from_group_with_filter;
    Alcotest.test_case "subset projection regroups" `Quick
      test_distinct_subset_of_keys_regroups;
    Alcotest.test_case "non-key filter rejected" `Quick
      test_distinct_filter_on_nonkey_rejected;
    Alcotest.test_case "distinct from distinct" `Quick
      test_keys_only_group_from_distinct;
    Alcotest.test_case "keys-only group from distinct" `Quick
      test_group_no_aggs_from_distinct;
    Alcotest.test_case "aggregates need more than distinct" `Quick
      test_group_with_aggs_from_distinct_rejected;
    Alcotest.test_case "DISTINCT summary answers both spellings" `Quick
      test_distinct_summary_answers_both_spellings;
    Alcotest.test_case "DISTINCT summary kept fresh on INSERT" `Quick
      test_distinct_summary_maintained;
  ]
