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

(* Tables and summaries are stored as column batches, and no set-up,
   read or insert path should box one back into rows: an adhoc_plan-style
   set-up (one summary per non-empty subset of six grouping columns) and a
   stream of rewritten reads with fresh range constants, with INSERTs that
   every summary absorbs incrementally, build no row through [Db.get] on
   the vectorized engine. The reference engine boxes every scan, which
   shows the counter is live. *)
let test_no_row_materialization () =
  let module W = Workload.Star_schema in
  let params = { W.default_params with n_custs = 6; trans_per_acct_year = 40 } in
  let sn = Sess.of_tables (W.catalog ()) (W.generate params) in
  let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  let built0 = counter "db.materialized_rows"
  and rewrites0 = counter "plan.rewrites" in
  let dims =
    [
      ("flid", "flid"); ("faid", "faid"); ("fpgid", "fpgid");
      ("year(date) AS year", "year(date)"); ("month(date) AS month", "month(date)");
      ("qty", "qty");
    ]
  in
  let rec subsets = function
    | [] -> [ [] ]
    | x :: rest ->
        let r = subsets rest in
        r @ List.map (fun s -> x :: s) r
  in
  List.iteri
    (fun i keys ->
      if keys <> [] then
        ignore
          (script sn
             (Printf.sprintf
                "CREATE SUMMARY TABLE g_mv%d AS SELECT %s, COUNT(*) AS c, \
                 SUM(qty) AS sq FROM Trans GROUP BY %s;"
                i
                (String.concat ", " (List.map fst keys))
                (String.concat ", " (List.map snd keys)))))
    (subsets dims);
  let rng = Random.State.make [| 7 |] in
  let reads = 40 in
  for k = 1 to reads do
    if k mod 8 = 0 then
      ignore
        (script sn
           (Printf.sprintf
              "INSERT INTO Trans VALUES (%d, 1, 2, 3, DATE '1995-03-04', 2, \
               10.50, 0.05), (%d, 2, 3, 4, DATE '1996-11-20', 1, 99.00, 0.0);"
              (900_000 + (2 * k)) (900_001 + (2 * k))));
    (* DELETE the pair inserted four reads ago, and once a key that is not
       there: the summaries absorb both without building rows *)
    if k mod 8 = 4 then
      ignore
        (script sn
           (Printf.sprintf "DELETE FROM Trans WHERE tid = %d OR tid = %d;"
              (900_000 + (2 * (k - 4))) (900_001 + (2 * (k - 4)))));
    let r n = 1 + Random.State.int rng n in
    ignore
      (script sn
         (match Random.State.int rng 3 with
         | 0 ->
             let a = r 100 in
             Printf.sprintf
               "SELECT flid, SUM(qty) AS s FROM Trans WHERE flid BETWEEN %d AND \
                %d GROUP BY flid;"
               a (a + r 40)
         | 1 ->
             Printf.sprintf
               "SELECT fpgid, year(date) AS year, COUNT(*) AS c FROM Trans \
                WHERE fpgid >= %d AND faid <= %d GROUP BY fpgid, year(date);"
               (r 20) (r 80)
         | _ ->
             Printf.sprintf
               "SELECT year(date) AS year, month(date) AS month, COUNT(*) AS \
                c, SUM(qty) AS s FROM Trans WHERE flid < %d AND fpgid > %d \
                GROUP BY year(date), month(date);"
               (1 + r 99) (r 19)))
  done;
  let built = counter "db.materialized_rows" - built0 in
  Alcotest.(check int) "every read rewritten" reads (counter "plan.rewrites" - rewrites0);
  Alcotest.(check (list string)) "every summary still fresh" []
    (Mvstore.Store.stale (Sess.store sn));
  (match Engine.Exec.default_engine with
  | Engine.Exec.Vector -> Alcotest.(check int) "no rows materialized" 0 built
  | Engine.Exec.Reference ->
      Alcotest.(check bool) "reference scans box rows" true (built > 0));
  (* the maintained summaries equal their re-derivation *)
  let db = Sess.db sn in
  List.iter
    (fun (e : Mvstore.Store.entry) ->
      Alcotest.(check bool)
        (e.Mvstore.Store.e_name ^ " equals its re-derivation") true
        (R.bag_equal
           (Engine.Column.to_relation (Engine.Exec.run_batch db e.Mvstore.Store.e_graph))
           (Engine.Column.to_relation (Engine.Db.batch db e.Mvstore.Store.e_name))))
    (Mvstore.Store.entries (Sess.store sn));
  (* and the counter counts exactly the rows [Db.get] builds *)
  let before = counter "db.materialized_rows" in
  ignore (Engine.Db.get_exn (Sess.db sn) "Trans");
  Alcotest.(check int) "one table's rows"
    (Engine.Db.cardinality (Sess.db sn) "Trans")
    (counter "db.materialized_rows" - before)

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
    Alcotest.test_case "no row materialization" `Quick
      test_no_row_materialization;
  ]
