(* The rewrite-planning subsystem: plan-cache hits perform zero matching
   work, epoch invalidation never serves a stale plan, the candidate index
   agrees with the store's freshness bookkeeping, LRU eviction is bounded,
   and an interleaved DML/DDL workload is result-identical to a
   rewrite-off session. *)

module Sess = Mvstore.Session
module Store = Mvstore.Store
module R = Data.Relation
module P = Plancache

let script sn sql = ignore (Sess.exec_sql sn sql)
let parse = Sqlsyn.Parser.parse_query
let run ?config sn sql = Sess.run_query ?config sn (parse sql)
let counter = Helpers.counter

let grouped_session () =
  let sn = Sess.create () in
  script sn
    "CREATE TABLE t (g INT NOT NULL, v INT NOT NULL); \
     INSERT INTO t VALUES (1, 10), (1, 20), (2, 5); \
     CREATE SUMMARY TABLE m AS SELECT g, SUM(v) AS s, COUNT(*) AS c FROM t \
     GROUP BY g;";
  sn

(* The index must list exactly the store's fresh (rewritable) entries. *)
let check_index_agrees what sn =
  let fresh =
    List.map
      (fun (mv : Astmatch.Rewrite.mv) -> mv.mv_name)
      (Store.rewritable (Sess.store sn))
  in
  let indexed = P.Candidates.names (P.Candidates.build (Store.rewritable (Sess.store sn))) in
  Alcotest.(check (list string)) (what ^ ": index = rewritable") fresh indexed

(* ---------------- warm cache: zero matching work ---------------- *)

let test_warm_cache_no_matching () =
  let sn = grouped_session () in
  let q = "SELECT g, SUM(v) AS s FROM t GROUP BY g" in
  let _, steps1 = run sn q in
  Alcotest.(check bool) "first run rewritten" true (steps1 <> []);
  let calls0 = counter "match.calls" and hits0 = counter "plan.cache_hits" in
  let rel2, steps2 = run sn q in
  Alcotest.(check bool) "second run rewritten" true (steps2 <> []);
  Alcotest.(check int) "zero match_boxes calls when warm" calls0
    (counter "match.calls");
  Alcotest.(check int) "cache hit recorded" (hits0 + 1)
    (counter "plan.cache_hits");
  let direct, _ = run ~config:(Helpers.base_only sn) sn q in
  Alcotest.(check bool) "cached plan correct" true
    (R.bag_equal_approx direct rel2)

let test_negative_decision_cached () =
  let sn = grouped_session () in
  (* MIN is not derivable from a SUM/COUNT summary: no rewrite *)
  let q = "SELECT g, MIN(v) AS mn FROM t GROUP BY g" in
  let _, steps1 = run sn q in
  Alcotest.(check bool) "not rewritten" true (steps1 = []);
  let calls0 = counter "match.calls" in
  let _, steps2 = run sn q in
  Alcotest.(check bool) "still not rewritten" true (steps2 = []);
  Alcotest.(check int) "negative entry also skips matching" calls0
    (counter "match.calls")

(* ---------------- candidate filtering ---------------- *)

let test_footprint_filter () =
  let sn = grouped_session () in
  script sn
    "CREATE TABLE u (x INT NOT NULL); INSERT INTO u VALUES (1), (2);";
  let filtered0 = counter "plan.filtered"
  and attempted0 = counter "plan.attempted" in
  (* query over u only: the MV over t is not footprint-eligible *)
  let _, steps = run sn "SELECT x, COUNT(*) AS c FROM u GROUP BY x" in
  Alcotest.(check bool) "no rewrite" true (steps = []);
  Alcotest.(check int) "MV filtered, not attempted" (filtered0 + 1)
    (counter "plan.filtered");
  Alcotest.(check int) "nothing attempted" attempted0
    (counter "plan.attempted")

let test_dedup_bit_filter () =
  let sn = grouped_session () in
  let filtered0 = counter "plan.filtered" in
  (* plain scan: a grouped summary can never answer it *)
  let _, steps = run sn "SELECT g, v FROM t" in
  Alcotest.(check bool) "no rewrite" true (steps = []);
  Alcotest.(check int) "grouped MV filtered for scan query" (filtered0 + 1)
    (counter "plan.filtered");
  (* a DISTINCT query has a dedup path: the grouped MV must be eligible *)
  let attempted1 = counter "plan.attempted" in
  let _ = run sn "SELECT DISTINCT g FROM t" in
  Alcotest.(check int) "grouped MV attempted for DISTINCT query"
    (attempted1 + 1) (counter "plan.attempted")

let test_candidates_unit () =
  let sn = grouped_session () in
  let cat = Engine.Db.catalog (Sess.db sn) in
  let mvs = Store.rewritable (Sess.store sn) in
  let idx = P.Candidates.build mvs in
  Alcotest.(check int) "one candidate" 1 (P.Candidates.size idx);
  let build sql = Qgm.Builder.build cat (parse sql) in
  let g_ok = build "SELECT g, SUM(v) AS s FROM t GROUP BY g" in
  Alcotest.(check (list string)) "footprint" [ "t" ] (P.Candidates.footprint g_ok);
  Alcotest.(check bool) "grouped query dedups" true (P.Candidates.dedups g_ok);
  let kept, skipped = P.Candidates.eligible idx cat g_ok in
  Alcotest.(check int) "kept for grouped query over t" 1 (List.length kept);
  Alcotest.(check int) "none skipped" 0 (List.length skipped);
  let g_scan = build "SELECT g FROM t" in
  Alcotest.(check bool) "scan does not dedup" false (P.Candidates.dedups g_scan);
  let kept, skipped = P.Candidates.eligible idx cat g_scan in
  Alcotest.(check int) "none kept for plain scan" 0 (List.length kept);
  Alcotest.(check int) "one skipped" 1 (List.length skipped)

let test_ri_extra_table_not_filtered () =
  (* an MV joining a second table through a declared FK must stay eligible
     for a query over the fact table alone (lossless extra join) *)
  let sn = Sess.create () in
  script sn
    "CREATE TABLE dims (id INT NOT NULL, label VARCHAR, PRIMARY KEY (id)); \
     CREATE TABLE fact (k INT NOT NULL, dim INT NOT NULL, v INT NOT NULL, \
     PRIMARY KEY (k), FOREIGN KEY (dim) REFERENCES dims (id));";
  let cat = Engine.Db.catalog (Sess.db sn) in
  let build sql = Qgm.Builder.build cat (parse sql) in
  let mv_graph =
    build
      "SELECT dim, SUM(v) AS s FROM fact, dims WHERE dim = id GROUP BY dim"
  in
  let idx =
    P.Candidates.build
      [ { Astmatch.Rewrite.mv_name = "mj"; mv_graph; mv_version = 0 } ]
  in
  let q = build "SELECT dim, SUM(v) AS s FROM fact GROUP BY dim" in
  let kept, _ = P.Candidates.eligible idx cat q in
  Alcotest.(check int) "RI-joined extra table stays eligible" 1
    (List.length kept)

(* ---------------- epoch invalidation ---------------- *)

let test_invalidation_insert_refresh () =
  let sn = Sess.create () in
  let plain = Sess.create ~config:(Helpers.no_rewrite ()) () in
  let both sql =
    script sn sql;
    script plain sql
  in
  both
    "CREATE TABLE t (g INT NOT NULL, v INT NOT NULL); \
     INSERT INTO t VALUES (1, 10), (2, 5); \
     CREATE SUMMARY TABLE m AS SELECT g, SUM(v) AS s FROM t GROUP BY g \
     HAVING SUM(v) > 5;";
  let q = "SELECT g, SUM(v) AS s FROM t GROUP BY g HAVING SUM(v) > 5" in
  let compare_against_plain what =
    let via, _ = run sn q in
    let direct, _ = run plain q in
    Alcotest.(check bool) (what ^ ": results equal rewrite-off") true
      (R.bag_equal_approx via direct)
  in
  (* warm the cache *)
  let _, steps = run sn q in
  Alcotest.(check bool) "rewritten while fresh" true (steps <> []);
  let hits0 = counter "plan.cache_hits" in
  let _, steps = run sn q in
  Alcotest.(check bool) "served warm" true (steps <> []);
  Alcotest.(check int) "warm hit counted" (hits0 + 1)
    (counter "plan.cache_hits");
  check_index_agrees "fresh" sn;
  (* the HAVING summary is not incrementally maintainable: INSERT makes it
     stale AND must drop the cached plan *)
  both "INSERT INTO t VALUES (1, 100);";
  let inval0 = counter "plan.cache_invalidated"
  and hits0 = counter "plan.cache_hits" in
  let _, steps = run sn q in
  Alcotest.(check bool) "stale MV not used after insert" true (steps = []);
  Alcotest.(check int) "cached plan was invalidated" (inval0 + 1)
    (counter "plan.cache_invalidated");
  Alcotest.(check int) "stale plan not served" hits0
    (counter "plan.cache_hits");
  compare_against_plain "after insert";
  check_index_agrees "stale" sn;
  Alcotest.(check int) "stale MV out of the index" 0
    (P.Candidates.size
       (P.Candidates.build (Store.rewritable (Sess.store sn))));
  (* refresh restores freshness; the plan must be re-derived *)
  both "REFRESH SUMMARY TABLE m;";
  let _, steps = run sn q in
  Alcotest.(check bool) "re-derived after refresh" true (steps <> []);
  compare_against_plain "after refresh";
  check_index_agrees "refreshed" sn

let test_invalidation_drop () =
  let sn = grouped_session () in
  let q = "SELECT g, SUM(v) AS s FROM t GROUP BY g" in
  let _, steps = run sn q in
  Alcotest.(check bool) "rewritten" true (steps <> []);
  script sn "DROP SUMMARY TABLE m;";
  let rel, steps = run sn q in
  Alcotest.(check bool) "dropped MV no longer used" true (steps = []);
  let direct, _ = run ~config:(Helpers.base_only sn) sn q in
  Alcotest.(check bool) "results correct after drop" true
    (R.bag_equal_approx direct rel);
  check_index_agrees "after drop" sn

let test_incremental_insert_still_rewrites () =
  (* an incrementally-maintained summary stays fresh across INSERT; the
     cache entry is invalidated (epoch moved) but re-planning must find the
     rewrite again and see the refreshed contents *)
  let sn = grouped_session () in
  let q = "SELECT g, SUM(v) AS s FROM t GROUP BY g" in
  let _, steps = run sn q in
  Alcotest.(check bool) "rewritten before insert" true (steps <> []);
  script sn "INSERT INTO t VALUES (3, 7);";
  let rel, steps = run sn q in
  Alcotest.(check bool) "rewritten after incremental insert" true (steps <> []);
  let direct, _ = run ~config:(Helpers.base_only sn) sn q in
  Alcotest.(check bool) "incrementally maintained contents" true
    (R.bag_equal_approx direct rel)

let test_ddl_bumps_epoch () =
  let sn = grouped_session () in
  let e0 = Store.epoch (Sess.store sn) in
  script sn "CREATE TABLE z (a INT NOT NULL);";
  Alcotest.(check bool) "CREATE TABLE bumps the epoch" true
    (Store.epoch (Sess.store sn) > e0)

(* ---------------- LRU bound ---------------- *)

let test_lru_eviction () =
  let sn = Sess.create () in
  script sn
    "CREATE TABLE t (g INT NOT NULL, v INT NOT NULL); \
     INSERT INTO t VALUES (1, 10);";
  let planner = P.Planner.create ~capacity:2 () in
  let cat = Engine.Db.catalog (Sess.db sn) in
  let plan sql =
    ignore
      (P.Planner.plan planner ~cat ~epoch:(Store.epoch (Sess.store sn))
         ~mvs:(Store.rewritable (Sess.store sn))
         (Qgm.Builder.build cat (parse sql)))
  in
  let evicted0 = counter "plan.cache_evictions" in
  plan "SELECT g FROM t";
  plan "SELECT v FROM t";
  plan "SELECT g, v FROM t";
  Alcotest.(check int) "eviction happened" (evicted0 + 1)
    (counter "plan.cache_evictions");
  Alcotest.(check int) "cache stays bounded" 2 (P.Planner.cache_length planner);
  (* the evicted (least recently used) query re-plans as a miss *)
  let misses0 = counter "plan.cache_misses" in
  plan "SELECT g FROM t";
  Alcotest.(check int) "evicted entry is a miss again" (misses0 + 1)
    (counter "plan.cache_misses")

(* ---------------- differential: interleaved workload ---------------- *)

let test_differential_interleaved () =
  let rw = Sess.create () in
  let plain = Sess.create ~config:(Helpers.no_rewrite ()) () in
  let both sql =
    script rw sql;
    script plain sql;
    check_index_agrees "interleaved" rw
  in
  let queries =
    [
      "SELECT g, SUM(v) AS s FROM t GROUP BY g";
      "SELECT g, COUNT(*) AS c FROM t GROUP BY g";
      "SELECT g, SUM(v) AS s FROM t GROUP BY g HAVING SUM(v) > 10";
      "SELECT DISTINCT g FROM t";
      "SELECT g, v FROM t";
    ]
  in
  let check_all what =
    List.iter
      (fun q ->
        let via, _ = run rw q in
        let direct, _ = run plain q in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s" what q)
          true
          (R.bag_equal_approx via direct))
      queries
  in
  both "CREATE TABLE t (g INT NOT NULL, v INT NOT NULL);";
  both "INSERT INTO t VALUES (1, 10), (1, 20), (2, 5), (3, 8);";
  both
    "CREATE SUMMARY TABLE m1 AS SELECT g, SUM(v) AS s, COUNT(*) AS c FROM t \
     GROUP BY g;";
  both
    "CREATE SUMMARY TABLE m2 AS SELECT g, SUM(v) AS s FROM t GROUP BY g \
     HAVING SUM(v) > 10;";
  check_all "after define";
  check_all "warm";
  both "INSERT INTO t VALUES (2, 40), (4, 1);";
  check_all "after insert";
  both "DELETE FROM t WHERE g = 1;";
  check_all "after delete";
  both "REFRESH SUMMARY TABLE m2;";
  check_all "after refresh";
  both "DROP SUMMARY TABLE m1;";
  check_all "after drop";
  both "INSERT INTO t VALUES (5, 9);";
  check_all "final"

let suite =
  [
    Alcotest.test_case "warm cache: zero matching" `Quick
      test_warm_cache_no_matching;
    Alcotest.test_case "negative decision cached" `Quick
      test_negative_decision_cached;
    Alcotest.test_case "footprint filter" `Quick test_footprint_filter;
    Alcotest.test_case "dedup-bit filter" `Quick test_dedup_bit_filter;
    Alcotest.test_case "candidates unit" `Quick test_candidates_unit;
    Alcotest.test_case "RI extra table eligible" `Quick
      test_ri_extra_table_not_filtered;
    Alcotest.test_case "invalidation: insert/refresh" `Quick
      test_invalidation_insert_refresh;
    Alcotest.test_case "invalidation: drop" `Quick test_invalidation_drop;
    Alcotest.test_case "incremental insert re-plans" `Quick
      test_incremental_insert_still_rewrites;
    Alcotest.test_case "DDL bumps epoch" `Quick test_ddl_bumps_epoch;
    Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
    Alcotest.test_case "differential interleaved" `Quick
      test_differential_interleaved;
  ]
