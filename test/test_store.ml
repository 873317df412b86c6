(* The MV store: definition, catalog registration, full and incremental
   refresh, staleness. The key property: after any sequence of inserts, an
   incrementally maintained summary equals a from-scratch recomputation. *)

module R = Data.Relation
module V = Data.Value
module S = Mvstore.Store
open Helpers

let fresh_db () = tiny_db ()

let define db name sql =
  S.define S.empty db ~name ~sql

let test_define_registers_table () =
  let store, db =
    define (fresh_db ()) "m"
      "select grp, count(*) as c, sum(v) as s from fact group by grp"
  in
  Alcotest.(check bool) "entry exists" true (S.find store "m" <> None);
  Alcotest.(check bool) "catalog table" true
    (Catalog.mem_table (Engine.Db.catalog db) "m");
  let rel = Engine.Db.get_exn db "m" in
  Alcotest.(check int) "materialized" 2 (R.cardinality rel);
  let e = Option.get (S.find store "m") in
  Alcotest.(check bool) "fresh" true e.S.e_fresh;
  Alcotest.(check (list string)) "tables" [ "fact" ] e.S.e_tables

let test_incr_plan_detection () =
  let plan_of sql =
    let store, _ = define (fresh_db ()) "m" sql in
    (Option.get (S.find store "m")).S.e_incr
  in
  Alcotest.(check bool) "count/sum/min/max ok" true
    (plan_of
       "select grp, count(*) as c, sum(v) as s, min(v) as mn, max(v) as mx \
        from fact group by grp"
    <> None);
  Alcotest.(check bool) "having blocks" true
    (plan_of "select grp, count(*) as c from fact group by grp having count(*) > 1"
    = None);
  Alcotest.(check bool) "avg blocks" true
    (plan_of "select grp, avg(v) as a from fact group by grp" = None);
  Alcotest.(check bool) "count distinct blocks" true
    (plan_of "select grp, count(distinct v) as c from fact group by grp" = None);
  Alcotest.(check bool) "grouping sets block" true
    (plan_of
       "select grp, count(*) as c from fact group by grouping sets((grp), ())"
    = None);
  Alcotest.(check bool) "join is maintainable" true
    (plan_of
       "select region, count(*) as c from fact, dims where dim = id group by \
        region"
    <> None)

let test_name_clashes () =
  let store, db = define (fresh_db ()) "m" "select grp, count(*) as c from fact group by grp" in
  (match S.define store db ~name:"m" ~sql:"select grp, count(*) as c from fact group by grp" with
  | exception S.Mv_error _ -> ()
  | _ -> Alcotest.fail "duplicate summary accepted");
  match S.define store db ~name:"fact" ~sql:"select grp, count(*) as c from fact group by grp" with
  | exception S.Mv_error _ -> ()
  | _ -> Alcotest.fail "clash with base table accepted"

let test_drop () =
  let store, db = define (fresh_db ()) "m" "select grp, count(*) as c from fact group by grp" in
  let store, db = S.drop store db "m" in
  Alcotest.(check bool) "entry gone" true (S.find store "m" = None);
  Alcotest.(check bool) "contents gone" true (Engine.Db.get db "m" = None);
  Alcotest.(check bool) "catalog entry gone" false
    (Catalog.mem_table (Engine.Db.catalog db) "m");
  (* re-creating under the same name must work *)
  let store, db =
    S.define store db ~name:"m"
      ~sql:"select grp, count(*) as c from fact group by grp"
  in
  Alcotest.(check bool) "recreated" true (S.find store "m" <> None);
  ignore db

let test_catalog_remove_table_guards () =
  let cat = tiny_catalog () in
  (* dims is referenced by fact's FK: dropping it must be refused *)
  (match Catalog.remove_table cat "dims" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "referenced table dropped");
  let cat' = Catalog.remove_table cat "fact" in
  Alcotest.(check bool) "fact removed" false (Catalog.mem_table cat' "fact");
  Alcotest.(check bool) "dims kept" true (Catalog.mem_table cat' "dims")

let test_incremental_matches_full ()
    =
  let store, db =
    define (fresh_db ()) "m"
      "select grp, count(*) as c, count(v) as cv, sum(v) as s, min(v) as mn, \
       max(v) as mx from fact group by grp"
  in
  let delta1 = [ [| i 10; i 1; s "x"; i 100 |]; [| i 11; i 3; s "z"; i 2 |] ] in
  let delta2 = [ [| i 12; i 1; s "z"; V.Null |] ] in
  let apply (store, db) rows =
    let store, db, _ = S.apply_insert store db ~table:"fact" ~rows in
    let current = Engine.Db.get_exn db "fact" in
    (store, Engine.Db.put db "fact" (R.append current rows))
  in
  let store, db = apply (store, db) delta1 in
  let store, db = apply (store, db) delta2 in
  let e = Option.get (S.find store "m") in
  Alcotest.(check bool) "still fresh" true e.S.e_fresh;
  let incremental = Engine.Db.get_exn db "m" in
  let recomputed = Engine.Exec.run db e.S.e_graph in
  Alcotest.(check bool) "incremental equals recomputation" true
    (R.bag_equal_by_name recomputed
       (R.project incremental (Array.to_list (R.columns recomputed))))

let test_non_incremental_goes_stale () =
  let store, db =
    define (fresh_db ()) "m"
      "select grp, count(*) as c from fact group by grp having count(*) > 1"
  in
  let rows = [ [| i 10; i 1; s "x"; i 1 |] ] in
  let store, db, went_stale = S.apply_insert store db ~table:"fact" ~rows in
  let e = Option.get (S.find store "m") in
  Alcotest.(check bool) "stale" false e.S.e_fresh;
  Alcotest.(check (list string)) "staleness reported" [ "m" ] went_stale;
  Alcotest.(check int) "excluded from rewriting" 0
    (List.length (S.rewritable store));
  (* refresh restores *)
  let db = Engine.Db.put db "fact" (R.append (Engine.Db.get_exn db "fact") rows) in
  let store, _db = S.refresh_full store db "m" in
  Alcotest.(check bool) "fresh again" true
    (Option.get (S.find store "m")).S.e_fresh;
  Alcotest.(check int) "rewritable again" 1 (List.length (S.rewritable store))

let test_unrelated_table_insert_ignored () =
  let store, db = define (fresh_db ()) "m" "select grp, count(*) as c from fact group by grp" in
  let store, _, went_stale =
    S.apply_insert store db ~table:"dims" ~rows:[ [| i 9; s "zz"; V.Null |] ]
  in
  Alcotest.(check (list string)) "nothing went stale" [] went_stale;
  Alcotest.(check bool) "still fresh" true
    (Option.get (S.find store "m")).S.e_fresh

(* ---------------- delete maintenance edge cases ---------------- *)

(* Delete the base rows AND fold the delta into the summaries; mirrors the
   session's ordering (maintenance sees the delta before the table shrinks). *)
let apply_delete_rows (store, db) rows =
  let store, db, went_stale = S.apply_delete store db ~table:"fact" ~rows in
  let current = Engine.Db.get_exn db "fact" in
  let doomed = R.create (Array.to_list (R.columns current)) rows in
  ((store, Engine.Db.put db "fact" (R.bag_diff current doomed)), went_stale)

let test_delete_nullable_sum_goes_stale () =
  (* v is nullable: subtracting from SUM(v) cannot restore the NULL that a
     group of all-NULL arguments requires, so deletes must not be folded *)
  let store, db =
    define (fresh_db ()) "m"
      "select grp, count(*) as c, sum(v) as s from fact group by grp"
  in
  let (store, _db), went_stale =
    apply_delete_rows (store, db) [ [| i 3; i 2; s "y"; i 5 |] ]
  in
  Alcotest.(check bool) "stale after delete" false
    (Option.get (S.find store "m")).S.e_fresh;
  Alcotest.(check (list string)) "reported stale" [ "m" ] went_stale

let test_delete_count_zero_removes_group () =
  (* SUM over the non-nullable k: delete-safe. Removing every "y" row must
     drop the group (COUNT reaches 0), matching a recomputation exactly *)
  let store, db =
    define (fresh_db ()) "m"
      "select grp, count(*) as c, sum(k) as sk from fact group by grp"
  in
  let doomed =
    [
      [| i 3; i 2; s "y"; i 5 |];
      [| i 5; i 3; s "y"; i 7 |];
      [| i 6; i 3; s "y"; i 7 |];
    ]
  in
  let (store, db), went_stale = apply_delete_rows (store, db) doomed in
  Alcotest.(check (list string)) "still fresh" [] went_stale;
  let e = Option.get (S.find store "m") in
  Alcotest.(check bool) "fresh" true e.S.e_fresh;
  let maintained = Engine.Db.get_exn db "m" in
  Alcotest.(check int) "y group removed" 1 (R.cardinality maintained);
  let recomputed = Engine.Exec.run db e.S.e_graph in
  Alcotest.(check bool) "incremental delete equals recompute" true
    (R.bag_equal_by_name recomputed
       (R.project maintained (Array.to_list (R.columns recomputed))))

let test_delete_minmax_goes_stale () =
  (* MIN/MAX cannot be maintained under deletion (the deleted row may have
     held the extremum); the summary must go stale, not silently drift *)
  let store, db =
    define (fresh_db ()) "m"
      "select grp, count(*) as c, min(k) as mn, max(k) as mx from fact \
       group by grp"
  in
  let (store, _db), went_stale =
    apply_delete_rows (store, db) [ [| i 2; i 1; s "x"; i 20 |] ]
  in
  Alcotest.(check bool) "stale after delete" false
    (Option.get (S.find store "m")).S.e_fresh;
  Alcotest.(check (list string)) "reported stale" [ "m" ] went_stale;
  Alcotest.(check int) "excluded from rewriting" 0
    (List.length (S.rewritable store))

(* property: random insert batches, incremental == full recompute *)
let arb_rows =
  QCheck.(
    list_of_size (Gen.int_range 1 5)
      (quad (int_range 100 10000) (int_range 1 3)
         (oneofl [ "x"; "y"; "z" ])
         (option small_signed_int)))

let prop_incremental_equals_full =
  QCheck.Test.make ~name:"incremental maintenance equals recompute" ~count:60
    QCheck.(list_of_size (Gen.int_range 1 4) arb_rows)
    (fun batches ->
      (* unique keys across batches *)
      let store, db =
        define (fresh_db ()) "m"
          "select grp, count(*) as c, sum(v) as sv, min(v) as mn, max(v) as \
           mx from fact group by grp"
      in
      let next_key = ref 100 in
      let state = ref (store, db) in
      List.iter
        (fun batch ->
          let rows =
            List.map
              (fun (_, dim, grp, v) ->
                incr next_key;
                [|
                  i !next_key; i dim; s grp;
                  (match v with Some x -> i x | None -> V.Null);
                |])
              batch
          in
          let store, db = !state in
          let store, db, _ = S.apply_insert store db ~table:"fact" ~rows in
          let db =
            Engine.Db.put db "fact" (R.append (Engine.Db.get_exn db "fact") rows)
          in
          state := (store, db))
        batches;
      let store, db = !state in
      let e = Option.get (S.find store "m") in
      let recomputed = Engine.Exec.run db e.S.e_graph in
      R.bag_equal recomputed
        (R.project (Engine.Db.get_exn db "m")
           (Array.to_list (R.columns recomputed))))

(* A summary is stored as the executor's result batch, which is computed
   in the scratch arena; every later run reuses the arena's pooled chunks,
   most recently returned first. The batch must be copied out before it is
   stored: after an INSERT and a run of large base-table queries writing
   over those chunks, each summary still equals its reference re-derivation
   and the table holds exactly its rows. *)
let test_stored_batches_survive_arena_reuse () =
  let module Sess = Mvstore.Session in
  let col name ty = { Catalog.col_name = name; col_ty = ty; nullable = true } in
  let cat =
    Catalog.add_table Catalog.empty
      {
        Catalog.tbl_name = "t";
        tbl_cols = [ col "k" V.Tint; col "g" V.Tint; col "v" V.Tfloat; col "s" V.Tstr ];
        primary_key = [];
        unique_keys = [];
        foreign_keys = [];
      }
  in
  let row k = [| i k; i (k mod 7); f (float_of_int (k mod 13) *. 1.5); s (Printf.sprintf "s%d" (k mod 5)) |] in
  let initial = List.init 4000 row in
  let inserted = [ [| i 4000; i 3; f 4.5; s "s0" |]; [| i 4001; i 9; f 0.25; s "new" |] ] in
  let sn = Sess.of_tables cat [ ("t", R.create [ "k"; "g"; "v"; "s" ] initial) ] in
  let exec sql = ignore (Sess.exec_sql sn sql) in
  exec "CREATE SUMMARY TABLE m1 AS SELECT g, COUNT(*) AS c, SUM(v) AS sv FROM t GROUP BY g;";
  exec "INSERT INTO t VALUES (4000, 3, 4.5, 's0'), (4001, 9, 0.25, 'new');";
  exec
    "CREATE SUMMARY TABLE m2 AS SELECT s, g, COUNT(*) AS c, MIN(v) AS lo, \
     MAX(k) AS hi FROM t GROUP BY s, g;";
  for q = 1 to 24 do
    exec
      (Printf.sprintf
         "SELECT k * %d AS x, g + %d AS y, v * %d.0 AS z, s FROM t WHERE k >= %d;"
         q q q (q * 50))
  done;
  let db = Sess.db sn in
  List.iter
    (fun name ->
      let e = Option.get (S.find (Sess.store sn) name) in
      Alcotest.(check bool) (name ^ " fresh") true e.S.e_fresh;
      let derived = Engine.Reference.run db e.S.e_graph in
      Alcotest.(check bool)
        (name ^ " equals its re-derivation")
        true
        (R.bag_equal_approx derived (Engine.Db.get_exn db name)))
    [ "m1"; "m2" ];
  check_rows "table rows" (R.create [ "k"; "g"; "v"; "s" ] (initial @ inserted))
    (Engine.Db.get_exn db "t")

(* A summary over a summary would be maintained through its footprint,
   which names the inner summary, not the base table under it: an INSERT
   into t left m2 fresh over old contents, and a query routed to it
   answered 2 | 30 where the base plan answers 3 | 60. The definition is
   refused, with an error naming the inner summary, and the query then
   reads m. *)
let test_summary_over_summary_refused () =
  let module Sess = Mvstore.Session in
  let inner = "SELECT g, COUNT(*) AS c, SUM(v) AS s FROM t GROUP BY g" in
  let outer = "SELECT COUNT(*) AS n, SUM(s) AS total FROM m" in
  let sn = Sess.create () in
  let exec sql = Sess.exec_sql sn sql in
  ignore (exec "CREATE TABLE t (g INT NOT NULL, v INT NOT NULL)");
  ignore (exec "INSERT INTO t VALUES (1,10),(2,20)");
  ignore (exec ("CREATE SUMMARY TABLE m AS " ^ inner));
  (match S.define (Sess.store sn) (Sess.db sn) ~name:"m2" ~sql:outer with
  | exception S.Mv_error msg ->
      Alcotest.(check bool) ("store error names m: " ^ msg) true
        (contains msg "summary table m")
  | _ -> Alcotest.fail "Store.define accepted a summary over a summary");
  (match exec ("CREATE SUMMARY TABLE m2 AS " ^ outer) with
  | exception Sess.Session_error msg ->
      Alcotest.(check bool) ("session error names m: " ^ msg) true
        (contains msg "summary table m")
  | _ -> Alcotest.fail "CREATE SUMMARY TABLE accepted a summary over a summary");
  Alcotest.(check bool) "m2 not registered" true (S.find (Sess.store sn) "m2" = None);
  ignore (exec "INSERT INTO t VALUES (3,30)");
  let answer config =
    match Sess.exec_sql ?config sn (outer ^ ";") with
    | [ Sess.Table rel ] -> rel
    | _ -> Alcotest.fail "expected one result table"
  in
  let base = { (Sess.config sn) with Sess.rewrite = false } in
  check_rows "rewrite on" (R.create [ "n"; "total" ] [ [| i 3; i 60 |] ]) (answer None);
  check_rows "rewrite off" (R.create [ "n"; "total" ] [ [| i 3; i 60 |] ]) (answer (Some base))

let suite =
  [
    Alcotest.test_case "define registers" `Quick test_define_registers_table;
    Alcotest.test_case "summary over a summary refused" `Quick
      test_summary_over_summary_refused;
    Alcotest.test_case "incremental plan detection" `Quick
      test_incr_plan_detection;
    Alcotest.test_case "name clashes" `Quick test_name_clashes;
    Alcotest.test_case "drop" `Quick test_drop;
    Alcotest.test_case "catalog remove guards" `Quick
      test_catalog_remove_table_guards;
    Alcotest.test_case "incremental equals full" `Quick
      test_incremental_matches_full;
    Alcotest.test_case "stale + refresh" `Quick test_non_incremental_goes_stale;
    Alcotest.test_case "unrelated inserts ignored" `Quick
      test_unrelated_table_insert_ignored;
    Alcotest.test_case "delete: nullable SUM goes stale" `Quick
      test_delete_nullable_sum_goes_stale;
    Alcotest.test_case "delete: COUNT reaching zero removes group" `Quick
      test_delete_count_zero_removes_group;
    Alcotest.test_case "delete: MIN/MAX goes stale" `Quick
      test_delete_minmax_goes_stale;
    Alcotest.test_case "stored batches survive arena reuse" `Quick
      test_stored_batches_survive_arena_reuse;
    QCheck_alcotest.to_alcotest prop_incremental_equals_full;
  ]
