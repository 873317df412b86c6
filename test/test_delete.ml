(* DELETE and delete maintenance of summary tables. *)

module Sess = Mvstore.Session
module S = Mvstore.Store
module R = Data.Relation
module V = Data.Value
open Helpers

let script sn sql = Sess.exec_sql sn sql

let last_table outcomes =
  match List.rev outcomes with
  | Sess.Table r :: _ -> r
  | _ -> Alcotest.fail "expected a result table"

let setup () =
  let sn = Sess.create () in
  ignore
    (script sn
       "CREATE TABLE t (g INT NOT NULL, v INT); \
        INSERT INTO t VALUES (1, 10), (1, 20), (2, 5), (2, NULL), (3, 7);");
  sn

let test_delete_where () =
  let sn = setup () in
  ignore (script sn "DELETE FROM t WHERE g = 1;");
  let rel = last_table (script sn "SELECT g, v FROM t ORDER BY g;") in
  Alcotest.(check int) "three left" 3 (R.cardinality rel)

let test_delete_null_pred_keeps_row () =
  let sn = setup () in
  (* v > 3 is UNKNOWN for the NULL row: it must survive *)
  ignore (script sn "DELETE FROM t WHERE v > 3;");
  let rel = last_table (script sn "SELECT g, v FROM t;") in
  Alcotest.(check int) "null row kept" 1 (R.cardinality rel);
  Alcotest.(check string) "it is the null row" "NULL"
    (V.to_string (List.hd (R.rows rel)).(1))

let test_delete_all () =
  let sn = setup () in
  ignore (script sn "DELETE FROM t;");
  let rel = last_table (script sn "SELECT g FROM t;") in
  Alcotest.(check int) "empty" 0 (R.cardinality rel)

let test_delete_duplicates_individually () =
  let sn = Sess.create () in
  ignore
    (script sn
       "CREATE TABLE d (x INT NOT NULL); \
        INSERT INTO d VALUES (1), (1), (2); \
        DELETE FROM d WHERE x = 1;");
  let rel = last_table (script sn "SELECT x FROM d;") in
  Alcotest.(check int) "both duplicates gone" 1 (R.cardinality rel)

let setup_maint () =
  (* NOT NULL v: delete maintenance requires non-nullable SUM arguments *)
  let sn = Sess.create () in
  ignore
    (script sn
       "CREATE TABLE t (g INT NOT NULL, v INT NOT NULL); \
        INSERT INTO t VALUES (1, 10), (1, 20), (2, 5), (2, 9), (3, 7);");
  sn

let test_delete_maintains_count_sum_summary () =
  let sn = setup_maint () in
  ignore
    (script sn
       "CREATE SUMMARY TABLE m AS SELECT g, COUNT(*) AS c, SUM(v) AS s FROM \
        t GROUP BY g;");
  ignore (script sn "DELETE FROM t WHERE g = 2;");
  (* summary must still be fresh and correct: the g=2 group disappears *)
  let e = Option.get (S.find (Sess.store sn) "m") in
  Alcotest.(check bool) "still fresh" true e.S.e_fresh;
  let mv = last_table (script sn "SELECT g, c, s FROM m ORDER BY g;") in
  Alcotest.(check (list (list string)))
    "groups after delete"
    [ [ "1"; "2"; "30" ]; [ "3"; "1"; "7" ] ]
    (List.map (List.map V.to_string) (List.map Array.to_list (R.rows mv)))

let test_delete_partial_group () =
  let sn = setup_maint () in
  ignore
    (script sn
       "CREATE SUMMARY TABLE m AS SELECT g, COUNT(*) AS c, SUM(v) AS s FROM \
        t GROUP BY g;");
  ignore (script sn "DELETE FROM t WHERE v = 10;");
  let mv = last_table (script sn "SELECT g, c, s FROM m ORDER BY g;") in
  Alcotest.(check (list (list string)))
    "g=1 group shrunk"
    [ [ "1"; "1"; "20" ]; [ "2"; "2"; "14" ]; [ "3"; "1"; "7" ] ]
    (List.map (List.map V.to_string) (List.map Array.to_list (R.rows mv)))

let test_nullable_sum_goes_stale_on_delete () =
  (* SUM over a nullable column cannot be maintained under deletes: an
     all-NULL group must come back as NULL, not 0 *)
  let sn = setup () in
  ignore
    (script sn
       "CREATE SUMMARY TABLE mn AS SELECT g, COUNT(*) AS c, SUM(v) AS s \
        FROM t GROUP BY g;");
  ignore (script sn "DELETE FROM t WHERE v = 5;");
  let e = Option.get (S.find (Sess.store sn) "mn") in
  Alcotest.(check bool) "stale" false e.S.e_fresh

let test_minmax_summary_goes_stale_on_delete () =
  let sn = setup () in
  ignore
    (script sn
       "CREATE SUMMARY TABLE mm AS SELECT g, COUNT(*) AS c, MAX(v) AS mx \
        FROM t GROUP BY g;");
  ignore (script sn "DELETE FROM t WHERE v = 20;");
  let e = Option.get (S.find (Sess.store sn) "mm") in
  Alcotest.(check bool) "stale (max not subtractable)" false e.S.e_fresh

let test_summary_without_count_goes_stale_on_delete () =
  let sn = setup () in
  ignore
    (script sn
       "CREATE SUMMARY TABLE ms AS SELECT g, SUM(v) AS s FROM t GROUP BY g;");
  ignore (script sn "DELETE FROM t WHERE g = 3;");
  let e = Option.get (S.find (Sess.store sn) "ms") in
  Alcotest.(check bool) "stale (no tombstone counter)" false e.S.e_fresh

let test_delete_scalar_subquery_same_table () =
  let sn = setup_maint () in
  ignore
    (script sn
       "CREATE SUMMARY TABLE m AS SELECT g, COUNT(*) AS c, SUM(v) AS s FROM \
        t GROUP BY g;");
  (* the selection of the deleted rows (for the summary) and of the
     surviving ones (for the table) both see MIN(v) = 5 over the table as
     it was before the DELETE *)
  (match script sn "DELETE FROM t WHERE v > (SELECT MIN(v) FROM t);" with
  | [ Sess.Msg m ] ->
      Alcotest.(check string) "count" "4 row(s) deleted from t" m
  | _ -> Alcotest.fail "expected one message");
  let rel = last_table (script sn "SELECT g, v FROM t;") in
  Alcotest.(check (list (list string)))
    "only the minimum survives" [ [ "2"; "5" ] ]
    (List.map (List.map V.to_string) (List.map Array.to_list (R.rows rel)));
  let e = Option.get (S.find (Sess.store sn) "m") in
  Alcotest.(check bool) "still fresh" true e.S.e_fresh;
  let db = Sess.db sn in
  let stored = Engine.Db.get_exn db "m" in
  Alcotest.(check (list (list string)))
    "one group left" [ [ "2"; "1"; "5" ] ]
    (List.map (List.map V.to_string) (List.map Array.to_list (R.rows stored)));
  Alcotest.(check bool) "summary equals its re-derivation" true
    (R.bag_equal (Engine.Exec.run db e.S.e_graph) stored)

(* property: random insert/delete interleavings keep the summary equal to a
   recomputation *)
let prop_mixed_maintenance =
  QCheck.Test.make ~name:"insert/delete maintenance equals recompute"
    ~count:60
    QCheck.(
      list_of_size (Gen.int_range 1 8)
        (pair bool (pair (int_range 1 3) (int_range 0 20))))
    (fun ops ->
      let sn = Sess.create () in
      ignore
        (script sn
           "CREATE TABLE t (g INT NOT NULL, v INT NOT NULL); \
            INSERT INTO t VALUES (1, 1), (2, 2), (3, 3); \
            CREATE SUMMARY TABLE m AS SELECT g, COUNT(*) AS c, SUM(v) AS s \
            FROM t GROUP BY g;");
      List.iter
        (fun (is_insert, (g, v)) ->
          if is_insert then
            ignore (script sn (Printf.sprintf "INSERT INTO t VALUES (%d, %d);" g v))
          else
            ignore (script sn (Printf.sprintf "DELETE FROM t WHERE g = %d AND v = %d;" g v)))
        ops;
      let e = Option.get (S.find (Sess.store sn) "m") in
      if not e.S.e_fresh then true (* stale is always allowed, never wrong *)
      else
        let recomputed = Engine.Exec.run (Sess.db sn) e.S.e_graph in
        let stored = Engine.Db.get_exn (Sess.db sn) "m" in
        R.bag_equal recomputed
          (R.project stored (Array.to_list (R.columns recomputed))))

let test_delete_errors () =
  let sn = setup () in
  (match script sn "DELETE FROM ghost;" with
  | exception Sess.Session_error _ -> ()
  | _ -> Alcotest.fail "unknown table accepted");
  match script sn "DELETE FROM t WHERE nope = 1;" with
  | exception Sess.Session_error _ -> ()
  | _ -> Alcotest.fail "unknown column accepted"

let suite =
  [
    Alcotest.test_case "delete with predicate" `Quick test_delete_where;
    Alcotest.test_case "null predicate keeps row" `Quick
      test_delete_null_pred_keeps_row;
    Alcotest.test_case "delete all" `Quick test_delete_all;
    Alcotest.test_case "duplicates" `Quick test_delete_duplicates_individually;
    Alcotest.test_case "count/sum summary maintained" `Quick
      test_delete_maintains_count_sum_summary;
    Alcotest.test_case "partial group" `Quick test_delete_partial_group;
    Alcotest.test_case "min/max goes stale" `Quick
      test_minmax_summary_goes_stale_on_delete;
    Alcotest.test_case "nullable sum goes stale" `Quick
      test_nullable_sum_goes_stale_on_delete;
    Alcotest.test_case "no counter goes stale" `Quick
      test_summary_without_count_goes_stale_on_delete;
    Alcotest.test_case "scalar subquery over the same table" `Quick
      test_delete_scalar_subquery_same_table;
    Alcotest.test_case "delete errors" `Quick test_delete_errors;
    QCheck_alcotest.to_alcotest prop_mixed_maintenance;
  ]
