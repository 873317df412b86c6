(* The decision-support workload: every query must produce identical
   results with rewriting on and off, and the routing expectations must
   hold (which queries the three summary tables can and cannot answer). *)

module Sess = Mvstore.Session
module R = Data.Relation

let session =
  lazy
    (let tables =
       Workload.Star_schema.generate
         {
           Workload.Star_schema.default_params with
           n_custs = 4;
           trans_per_acct_year = 40;
         }
     in
     let sn = Sess.of_tables (Workload.Star_schema.catalog ()) tables in
     List.iter
       (fun (name, sql) ->
         ignore
           (Sess.exec_sql sn
              (Printf.sprintf "CREATE SUMMARY TABLE %s AS %s" name sql)))
       Workload.Decision_support.summary_tables;
     sn)

let run_case (q : Workload.Decision_support.query) () =
  let sn = Lazy.force session in
  let parsed = Sqlsyn.Parser.parse_query q.dq_sql in
  let direct, _ = Sess.run_query ~config:(Helpers.base_only sn) sn parsed in
  let via, steps = Sess.run_query sn parsed in
  Alcotest.(check bool)
    (Printf.sprintf "%s: rewrite expectation" q.dq_name)
    q.dq_expect_rewrite (steps <> []);
  Alcotest.(check bool)
    (Printf.sprintf "%s: results equal" q.dq_name)
    true
    (R.bag_equal_approx direct via)

let test_summaries_created () =
  let sn = Lazy.force session in
  Alcotest.(check int) "three summaries" 3
    (List.length (Mvstore.Store.entries (Sess.store sn)))

let suite =
  Alcotest.test_case "summaries created" `Quick test_summaries_created
  :: List.map
       (fun (q : Workload.Decision_support.query) ->
         Alcotest.test_case q.dq_name `Quick (run_case q))
       Workload.Decision_support.queries
