(* The statement driver: DDL/DML round trips, integrity enforcement,
   transparent rewriting, EXPLAIN. *)

module Sess = Mvstore.Session
module R = Data.Relation

let script session sql = Sess.exec_sql session sql

let last_table outcomes =
  match List.rev outcomes with
  | Sess.Table r :: _ -> r
  | _ -> Alcotest.fail "expected a result table"

let test_ddl_dml_query () =
  let sn = Sess.create () in
  let out =
    script sn
      "CREATE TABLE t (a INT NOT NULL, b VARCHAR); \
       INSERT INTO t VALUES (1, 'x'), (2, NULL); \
       INSERT INTO t (a) VALUES (3); \
       SELECT a, b FROM t ORDER BY a;"
  in
  let rel = last_table out in
  Alcotest.(check int) "three rows" 3 (R.cardinality rel);
  Alcotest.(check (list string)) "missing col is NULL"
    [ "3"; "NULL" ]
    (List.map Data.Value.to_string
       (Array.to_list (List.nth (R.rows rel) 2)))

let expect_err session sql =
  match script session sql with
  | exception Sess.Session_error _ -> ()
  | _ -> Alcotest.fail ("should fail: " ^ sql)

let test_integrity () =
  let sn = Sess.create () in
  ignore (script sn "CREATE TABLE t (a INT NOT NULL, b INT);");
  expect_err sn "INSERT INTO t (b) VALUES (1);";        (* a missing -> NULL *)
  expect_err sn "INSERT INTO t VALUES (NULL, 1);";
  expect_err sn "INSERT INTO t VALUES (1);";            (* arity *)
  expect_err sn "INSERT INTO t VALUES (1, 2, 3);";
  expect_err sn "INSERT INTO ghost VALUES (1);";
  expect_err sn "CREATE TABLE t (a INT);";              (* duplicate *)
  expect_err sn "SELECT ghost FROM t;"

let test_insert_expression_values () =
  let sn = Sess.create () in
  ignore (script sn "CREATE TABLE t (a INT NOT NULL, d DATE);");
  ignore (script sn "INSERT INTO t VALUES (1 + 2, DATE '1994-07-15');");
  let rel = last_table (script sn "SELECT a, year(d) AS y FROM t;") in
  Alcotest.(check (list string)) "computed" [ "3"; "1994" ]
    (List.map Data.Value.to_string (Array.to_list (List.hd (R.rows rel))))

let test_transparent_rewrite_and_toggle () =
  let sn = Sess.create () in
  ignore
    (script sn
       "CREATE TABLE t (g INT NOT NULL, v INT NOT NULL); \
        INSERT INTO t VALUES (1, 10), (1, 20), (2, 5); \
        CREATE SUMMARY TABLE m AS SELECT g, SUM(v) AS s, COUNT(*) AS c FROM \
        t GROUP BY g;");
  let q = Sqlsyn.Parser.parse_query "SELECT g, SUM(v) AS s FROM t GROUP BY g" in
  let _, steps = Sess.run_query sn q in
  Alcotest.(check bool) "rewritten" true (steps <> []);
  Sess.set_config sn (Helpers.base_only sn);
  let direct, steps' = Sess.run_query sn q in
  Alcotest.(check bool) "toggle off" true (steps' = []);
  Sess.set_config sn { (Sess.config sn) with rewrite = true };
  let via, _ = Sess.run_query sn q in
  Alcotest.(check bool) "equal either way" true (R.bag_equal_approx direct via)

(* A per-statement [~config] applies to that statement only: the
   session's own settings are untouched and the next statement uses them. *)
let test_per_statement_config () =
  let sn = Sess.create () in
  ignore
    (script sn
       "CREATE TABLE t (g INT NOT NULL, v INT NOT NULL); \
        INSERT INTO t VALUES (1, 10), (1, 20), (2, 5); \
        CREATE SUMMARY TABLE m AS SELECT g, SUM(v) AS s, COUNT(*) AS c FROM \
        t GROUP BY g;");
  let before = Sess.config sn in
  let config =
    {
      Sess.rewrite = false;
      verify = Sess.Always;
      limits = Govern.Budget.limits ~matches:1 ();
      auto_maint = true;
    }
  in
  let plan_of = function
    | [ Sess.Plan p ] -> p
    | _ -> Alcotest.fail "expected a plan"
  in
  let q = "SELECT g, SUM(v) AS s FROM t GROUP BY g" in
  let scans_m outcomes = Helpers.contains (plan_of outcomes) "SCAN m" in
  Alcotest.(check bool) "the override applies to its statement" false
    (scans_m (Sess.exec_sql ~config sn ("EXPLAIN " ^ q)));
  Alcotest.(check bool) "session config unchanged" true
    (Sess.config sn = before);
  Alcotest.(check bool) "the next statement routes again" true
    (scans_m (Sess.exec_sql sn ("EXPLAIN " ^ q)))

let test_explain_reports () =
  let sn = Sess.create () in
  ignore
    (script sn
       "CREATE TABLE t (g INT NOT NULL, v INT NOT NULL); \
        INSERT INTO t VALUES (1, 10), (1, 20), (2, 5); \
        CREATE SUMMARY TABLE m AS SELECT g, SUM(v) AS s FROM t GROUP BY g;");
  match script sn "EXPLAIN REWRITE SELECT g, SUM(v) AS s FROM t GROUP BY g;" with
  | [ Sess.Plan p ] ->
      let has needle =
        let n = String.length needle and h = String.length p in
        let rec go i = i + n <= h && (String.sub p i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "mentions the MV" true (has "m");
      Alcotest.(check bool) "mentions rewritten SQL" true (has "rewritten SQL")
  | _ -> Alcotest.fail "expected a plan"

let test_summary_lifecycle () =
  let sn = Sess.create () in
  ignore
    (script sn
       "CREATE TABLE t (g INT NOT NULL, v INT NOT NULL); \
        INSERT INTO t VALUES (1, 10); \
        CREATE SUMMARY TABLE m AS SELECT g, SUM(v) AS s FROM t GROUP BY g \
        HAVING SUM(v) > 5;");
  (* non-incremental: insert -> stale -> not used *)
  ignore (script sn "INSERT INTO t VALUES (1, 10);");
  let q = Sqlsyn.Parser.parse_query "SELECT g, SUM(v) AS s FROM t GROUP BY g HAVING SUM(v) > 5" in
  let _, steps = Sess.run_query sn q in
  Alcotest.(check bool) "stale MV unused" true (steps = []);
  ignore (script sn "REFRESH SUMMARY TABLE m;");
  let rel, steps = Sess.run_query sn q in
  Alcotest.(check bool) "used after refresh" true (steps <> []);
  Alcotest.(check (list string)) "correct content" [ "1"; "20" ]
    (List.map Data.Value.to_string (Array.to_list (List.hd (R.rows rel))));
  ignore (script sn "DROP SUMMARY TABLE m;");
  expect_err sn "REFRESH SUMMARY TABLE m;"

let test_explain_diagnostics () =
  let sn = Sess.create () in
  ignore
    (script sn
       "CREATE TABLE t (g INT NOT NULL, v INT, p INT NOT NULL); \
        INSERT INTO t VALUES (1, 10, 3), (2, 5, 5); \
        CREATE SUMMARY TABLE m AS SELECT g, COUNT(*) AS c FROM t GROUP BY g;");
  let has hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  (match script sn "EXPLAIN REWRITE SELECT g, SUM(v) AS s FROM t GROUP BY g;" with
  | [ Sess.Plan p ] ->
      Alcotest.(check bool) "reports missing aggregate" true
        (has p "not preserved by the summary")
  | _ -> Alcotest.fail "expected plan");
  match
    script sn "EXPLAIN REWRITE SELECT g, COUNT(*) AS c FROM t WHERE p > 3 GROUP BY g;"
  with
  | [ Sess.Plan p ] ->
      Alcotest.(check bool) "reports underivable predicate" true
        (has p "not derivable from the summary")
  | _ -> Alcotest.fail "expected plan"

let test_queries_on_summary_directly () =
  let sn = Sess.create () in
  ignore
    (script sn
       "CREATE TABLE t (g INT NOT NULL, v INT NOT NULL); \
        INSERT INTO t VALUES (1, 10), (2, 20); \
        CREATE SUMMARY TABLE m AS SELECT g, SUM(v) AS s FROM t GROUP BY g;");
  let rel = last_table (script sn "SELECT g, s FROM m ORDER BY g;") in
  Alcotest.(check int) "summary queryable" 2 (R.cardinality rel)

let suite =
  [
    Alcotest.test_case "ddl/dml/query" `Quick test_ddl_dml_query;
    Alcotest.test_case "integrity" `Quick test_integrity;
    Alcotest.test_case "expression values" `Quick test_insert_expression_values;
    Alcotest.test_case "transparent rewrite toggle" `Quick
      test_transparent_rewrite_and_toggle;
    Alcotest.test_case "per-statement config" `Quick test_per_statement_config;
    Alcotest.test_case "explain" `Quick test_explain_reports;
    Alcotest.test_case "summary lifecycle" `Quick test_summary_lifecycle;
    Alcotest.test_case "query summary directly" `Quick
      test_queries_on_summary_directly;
    Alcotest.test_case "explain diagnostics" `Quick test_explain_diagnostics;
  ]
