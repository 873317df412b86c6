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
   every summary absorbs incrementally, build no row through [Db.get].
   The last check shows the counter is live. *)
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
  Alcotest.(check int) "no rows materialized" 0 built;
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

(* ---------------- runs of CREATE SUMMARY statements ---------------- *)

(* A small star schema, shared by every session below (batches are
   immutable). *)
let star_batches =
  lazy
    (let module W = Workload.Star_schema in
     W.generate_batches { W.default_params with n_custs = 4; trans_per_acct_year = 25 })

let star_session () =
  Sess.of_batches (Workload.Star_schema.catalog ()) (Lazy.force star_batches)

let create name select = Printf.sprintf "CREATE SUMMARY TABLE %s AS %s;" name select

let summary_batch sn name = Engine.Db.batch (Sess.db sn) name

(* every summary of [sn] equals its derivation from the base tables, row
   by row *)
let check_base_derivations sn =
  List.iter
    (fun (e : Mvstore.Store.entry) ->
      Helpers.check_batch_values
        (e.Mvstore.Store.e_name ^ " equals its base derivation")
        (Engine.Exec.run_batch (Sess.db sn) e.Mvstore.Store.e_graph)
        (summary_batch sn e.Mvstore.Store.e_name))
    (Mvstore.Store.entries (Sess.store sn))

let derived_counts () =
  (Helpers.counter "store.derived_from_summary", Helpers.counter "store.derived_discarded")

let by_flid_fpgid =
  "SELECT flid, fpgid, COUNT(*) AS c, SUM(qty) AS sq FROM Trans GROUP BY flid, fpgid"

let by_flid = "SELECT flid, COUNT(*) AS c, SUM(qty) AS sq FROM Trans GROUP BY flid"
let by_fpgid = "SELECT fpgid, COUNT(*) AS c, SUM(qty) AS sq FROM Trans GROUP BY fpgid"

(* Listed coarse-first, the run is still derived finest first: both
   rollups come from the two-column summary, and every summary equals its
   base derivation row by row. *)
let test_run_rolls_up () =
  let sn = star_session () in
  let from0, discarded0 = derived_counts () in
  let outs =
    script sn (create "r_flid" by_flid ^ create "r_fpgid" by_fpgid ^ create "r_both" by_flid_fpgid)
  in
  Alcotest.(check int) "three messages" 3 (List.length outs);
  let from, discarded = derived_counts () in
  Alcotest.(check int) "rolled up from a summary" 2 (from - from0);
  Alcotest.(check int) "none discarded" 0 (discarded - discarded0);
  check_base_derivations sn;
  (* a single CREATE gets no parent search *)
  ignore (script sn (create "r_flid2" by_flid));
  Alcotest.(check int) "single statement derives from the base tables" from
    (fst (derived_counts ()))

let expect_session_error sn sql =
  match script sn sql with
  | exception Sess.Session_error m -> m
  | _ -> Alcotest.failf "should fail: %s" sql

let names sn =
  List.map (fun (e : Mvstore.Store.entry) -> e.Mvstore.Store.e_name) (Mvstore.Store.entries (Sess.store sn))

(* Statement-at-a-time semantics survive the derivation ahead. *)
let test_run_name_clash () =
  let sn = star_session () in
  let m =
    expect_session_error sn
      (create "a" by_flid_fpgid ^ create "b" by_flid ^ create "a" by_fpgid
     ^ create "c" by_fpgid)
  in
  Alcotest.(check bool) "names the clash" true (Helpers.contains m "a already exists");
  Alcotest.(check (list string)) "statements before the clash persist" [ "a"; "b" ] (names sn);
  check_base_derivations sn

let test_run_over_member_refused () =
  let sn = star_session () in
  let m =
    expect_session_error sn
      (create "a" by_flid_fpgid ^ create "b" by_flid
      ^ create "c" "SELECT flid, SUM(c) AS n FROM a GROUP BY flid")
  in
  Alcotest.(check bool) "names the member" true
    (Helpers.contains m "cannot be defined over summary table a");
  Alcotest.(check (list string)) "earlier members persist" [ "a"; "b" ] (names sn)

let test_run_then_parse_error () =
  let sn = star_session () in
  let from0, _ = derived_counts () in
  (match script sn (create "a" by_flid_fpgid ^ create "b" by_flid ^ " SELEC nonsense;") with
  | exception Sess.Session_error m ->
      Alcotest.(check bool) "a parse error" true (Helpers.contains m "parse error")
  | _ -> Alcotest.fail "the parse error must surface");
  Alcotest.(check (list string)) "the run's statements persist" [ "a"; "b" ] (names sn);
  Alcotest.(check int) "b rolled up from a" 1 (fst (derived_counts ()) - from0);
  check_base_derivations sn

(* A footprint table that changes between the derivation ahead and the
   install voids the pre-derived contents: they are discarded and the
   summary is derived over the new state. *)
let test_changed_base_discards () =
  let module S = Mvstore.Store in
  let db0 = Sess.db (star_session ()) in
  let defs = [ ("a", by_flid_fpgid); ("b", by_flid) ] in
  let derived = S.derive_set S.empty db0 defs in
  let db1 =
    Engine.Db.append db0 "Trans"
      (R.create
         (Catalog.column_names
            (Option.get (Catalog.find_table (Engine.Db.catalog db0) "Trans")))
         [
           [|
             Helpers.i 990_001; Helpers.i 1; Helpers.i 2; Helpers.i 3;
             Helpers.d 1995 3 4; Helpers.i 7; Helpers.f 10.5; Helpers.f 0.05;
           |];
         ])
  in
  let from0, discarded0 = derived_counts () in
  let store, db =
    List.fold_left
      (fun (store, db) (name, sql) -> S.define ~derived store db ~name ~sql)
      (S.empty, db1) defs
  in
  let from, discarded = derived_counts () in
  Alcotest.(check int) "both discarded" 2 (discarded - discarded0);
  Alcotest.(check int) "none used" 0 (from - from0);
  List.iter
    (fun (e : S.entry) ->
      Helpers.check_batch_values (e.S.e_name ^ " derived over the new state")
        (Engine.Exec.run_batch db1 e.S.e_graph)
        (Engine.Db.batch db e.S.e_name))
    (S.entries store);
  (* over the state it was derived on, the same derivation is used *)
  ignore
    (List.fold_left
       (fun (store, db) (name, sql) -> S.define ~derived store db ~name ~sql)
       (S.empty, db0) defs);
  Alcotest.(check (pair int int)) "used: b from a, none discarded" (from + 1, discarded)
    (derived_counts ())

(* A total (a grouping over the empty set) is derived from the base
   tables, never rolled up: over no rows its COUNT reads 0, where a SUM of
   a summary's counts reads NULL. *)
let test_run_total_over_no_rows () =
  let total sn name =
    match R.rows (Engine.Db.get_exn (Sess.db sn) name) with
    | [ row ] -> Array.to_list row
    | rows -> Alcotest.failf "%s: %d rows" name (List.length rows)
  in
  let value = Alcotest.testable Data.Value.pp ( = ) in
  let sn = star_session () in
  let from0, _ = derived_counts () in
  ignore
    (script sn
       (create "a" "SELECT qty, COUNT(*) AS c FROM Trans GROUP BY qty"
       ^ create "b" "SELECT COUNT(*) AS c, COUNT(qty) AS n FROM Trans WHERE qty > 1000"));
  Alcotest.(check int) "b derived from the base tables" from0 (fst (derived_counts ()));
  Alcotest.(check (list value)) "b counts no rows" [ Helpers.i 0; Helpers.i 0 ] (total sn "b");
  check_base_derivations sn;
  (* the same over an empty table *)
  let sn = star_session () in
  ignore (script sn "DELETE FROM Trans;");
  ignore
    (script sn
       (create "t" "SELECT COUNT(*) AS c, SUM(qty) AS s FROM Trans"
       ^ create "b" by_flid ^ create "a" by_flid_fpgid));
  Alcotest.(check (list value)) "t counts no rows" [ Helpers.i 0; Data.Value.Null ] (total sn "t");
  check_base_derivations sn

(* Property: a run of CREATE SUMMARY statements executed as one script and
   one statement at a time gives the same outcomes, the same entries and
   the same contents, value by value in row order. The aggregates of a run
   are prefixes of one menu, so wider definitions can often answer
   narrower ones; float SUM and AVG must come from the base tables. A
   WHERE may select no row, and one run in four goes over an empty
   [Trans], so totals over no rows are covered. *)
let gen_run =
  let open QCheck.Gen in
  let keys = [| ("flid", "flid"); ("fpgid", "fpgid"); ("year(date) AS yr", "year(date)"); ("qty", "qty") |] in
  (* [qty > 1000] selects no row *)
  let preds = [| "flid < 3"; "fpgid <> 2"; "year(date) >= 1995"; "qty > 2"; "qty > 1000" |] in
  let aggs =
    [| "COUNT(*)"; "COUNT(qty)"; "SUM(qty)"; "SUM(fpgid)"; "MIN(qty)"; "MAX(qty)";
       "MIN(price)"; "MAX(date)"; "SUM(price)"; "AVG(qty)" |]
  in
  let def menu =
    let* mask = array_repeat 4 bool in
    let* n_aggs = int_range 1 (List.length menu) in
    let* pred = oneofl (None :: List.init (Array.length preds) Option.some) in
    let chosen = List.filter (fun j -> mask.(j)) [ 0; 1; 2; 3 ] in
    let sel =
      List.map (fun j -> fst keys.(j)) chosen
      @ List.mapi (fun k a -> Printf.sprintf "%s AS a%d" aggs.(a) k) (List.filteri (fun k _ -> k < n_aggs) menu)
    in
    return
      (Printf.sprintf "SELECT %s FROM Trans%s%s" (String.concat ", " sel)
         (match pred with Some j -> " WHERE " ^ preds.(j) | None -> "")
         (if chosen = [] then ""
          else " GROUP BY " ^ String.concat ", " (List.map (fun j -> snd keys.(j)) chosen)))
  in
  let* menu = shuffle_l (List.init (Array.length aggs) Fun.id) in
  let* menu_len = int_range 1 4 in
  let menu = List.filteri (fun k _ -> k < menu_len) menu in
  let* n = int_range 2 8 in
  let* empty = frequencyl [ (3, false); (1, true) ] in
  let* run = list_repeat n (def menu) in
  return (empty, run)

let prop_script_equals_statements =
  QCheck.Test.make ~name:"a CREATE run as one script equals one statement at a time"
    ~count:60
    (QCheck.make
       ~print:(fun (empty, selects) ->
         (if empty then "(Trans emptied)\n" else "") ^ String.concat ";\n" selects)
       gen_run)
    (fun (empty, selects) ->
      let stmts = List.mapi (fun k sel -> create (Printf.sprintf "m%d" k) sel) selects in
      let outcomes sn run =
        match run sn with
        | outs -> Ok (List.map (function Sess.Msg m -> m | _ -> "?") outs)
        | exception Sess.Session_error m -> Error m
      in
      let session () =
        let sn = star_session () in
        if empty then ignore (script sn "DELETE FROM Trans;");
        sn
      in
      let whole = session () and single = session () in
      let o1 = outcomes whole (fun sn -> script sn (String.concat "\n" stmts)) in
      let o2 = outcomes single (fun sn -> List.concat_map (script sn) stmts) in
      if o1 <> o2 then QCheck.Test.fail_report "outcomes differ";
      let entry (e : Mvstore.Store.entry) =
        Mvstore.Store.(e.e_name, e.e_sql, e.e_cols, e.e_tables, e.e_fresh, e.e_incr)
      in
      if
        List.map entry (Mvstore.Store.entries (Sess.store whole))
        <> List.map entry (Mvstore.Store.entries (Sess.store single))
      then QCheck.Test.fail_report "entries differ";
      List.iter
        (fun (e : Mvstore.Store.entry) ->
          let name = e.Mvstore.Store.e_name in
          match Helpers.batch_value_diff (summary_batch single name) (summary_batch whole name) with
          | None -> ()
          | Some where -> QCheck.Test.fail_reportf "%s: %s" name where)
        (Mvstore.Store.entries (Sess.store single));
      true)

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
    Alcotest.test_case "CREATE run rolls up finest first" `Quick test_run_rolls_up;
    Alcotest.test_case "CREATE run: name clash mid-run" `Quick test_run_name_clash;
    Alcotest.test_case "CREATE run: definition over a member refused" `Quick
      test_run_over_member_refused;
    Alcotest.test_case "CREATE run: parse error after the run" `Quick
      test_run_then_parse_error;
    Alcotest.test_case "pre-derived contents discarded on a changed table" `Quick
      test_changed_base_discards;
    Alcotest.test_case "CREATE run: a total over no rows" `Quick test_run_total_over_no_rows;
    QCheck_alcotest.to_alcotest prop_script_equals_statements;
  ]
