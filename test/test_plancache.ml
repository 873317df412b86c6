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

(* ---------------- template fingerprints ---------------- *)

(* t(g, h, qty, v) with [n] rows, and one predicate-free summary per
   grouping of g and h: a miss matches all of them. *)
let shape_session ?(n = 60) ?(summaries = []) () =
  let sn = Sess.create () in
  script sn "CREATE TABLE t (g INT NOT NULL, h INT NOT NULL, qty INT NOT NULL, v INT NOT NULL);";
  script sn
    ("INSERT INTO t VALUES "
    ^ String.concat ", "
        (List.init n (fun i ->
             Printf.sprintf "(%d, %d, %d, %d)" (i mod 7) (i mod 5) (i mod 6) i))
    ^ ";");
  List.iter
    (fun (name, def) ->
      script sn (Printf.sprintf "CREATE SUMMARY TABLE %s AS %s;" name def))
    summaries;
  sn

let free_summaries =
  [
    ("m_g", "SELECT g, SUM(v) AS s, COUNT(*) AS c FROM t GROUP BY g");
    ("m_gh", "SELECT g, h, SUM(v) AS s, COUNT(*) AS c FROM t GROUP BY g, h");
    ("m_ghq", "SELECT g, h, qty, SUM(v) AS s, COUNT(*) AS c FROM t GROUP BY g, h, qty");
    ("m_gq", "SELECT g, qty, SUM(v) AS s, COUNT(*) AS c FROM t GROUP BY g, qty");
    ("m_h", "SELECT h, SUM(v) AS s, COUNT(*) AS c FROM t GROUP BY h");
    ("m_hq", "SELECT h, qty, SUM(v) AS s, COUNT(*) AS c FROM t GROUP BY h, qty");
  ]

let used (steps : Astmatch.Rewrite.step list) =
  List.map (fun (s : Astmatch.Rewrite.step) -> s.used_mv) steps

let check_base what sn sql rel =
  let direct, _ = run ~config:(Helpers.base_only sn) sn sql in
  Alcotest.(check bool) (what ^ ": equal to rewrite:false") true
    (R.bag_equal_approx direct rel)

let test_template_hit_rematches_route () =
  let sn = shape_session ~summaries:free_summaries () in
  let q k = Printf.sprintf "SELECT g, SUM(v) AS s FROM t WHERE g >= %d GROUP BY g" k in
  let calls0 = counter "match.calls" in
  let _, steps1 = run sn (q 1) in
  let miss_calls = counter "match.calls" - calls0 in
  Alcotest.(check (list string)) "miss routed via the smallest summary" [ "m_g" ]
    (used steps1);
  let calls1 = counter "match.calls"
  and misses1 = counter "plan.cache_misses"
  and hits1 = counter "plan.cache_hits"
  and thits1 = counter "plan.template_hits" in
  let rel, steps2 = run sn (q 3) in
  let hit_calls = counter "match.calls" - calls1 in
  Alcotest.(check (list string)) "template hit keeps the route" [ "m_g" ]
    (used steps2);
  Alcotest.(check int) "no miss" misses1 (counter "plan.cache_misses");
  Alcotest.(check int) "one template hit" (thits1 + 1)
    (counter "plan.template_hits");
  Alcotest.(check int) "counted as a cache hit" (hits1 + 1)
    (counter "plan.cache_hits");
  Alcotest.(check bool)
    (Printf.sprintf "far fewer match calls (%d against %d)" hit_calls miss_calls)
    true
    (hit_calls > 0 && 3 * hit_calls <= miss_calls);
  check_base "template hit" sn (q 3) rel;
  Alcotest.(check int) "one entry for the shape" 1
    (P.Planner.cache_length (Sess.planner sn));
  let explain k = Sess.explain sn (parse (q k)) in
  Alcotest.(check bool) "EXPLAIN: template hit" true
    (Helpers.contains (explain 5) "cache: template hit\n");
  Alcotest.(check bool) "EXPLAIN: exact hit" true
    (Helpers.contains (explain 1) "cache: hit\n")

let test_template_hit_sensitive_summary () =
  let sn =
    shape_session
      ~summaries:
        [
          ( "m_q3",
            "SELECT g, qty, SUM(v) AS s, COUNT(*) AS c FROM t WHERE qty >= 3 \
             GROUP BY g, qty" );
        ]
      ()
  in
  let q k = Printf.sprintf "SELECT g, SUM(v) AS s FROM t WHERE qty >= %d GROUP BY g" k in
  let rel4, steps4 = run sn (q 4) in
  Alcotest.(check (list string)) "qty >= 4 answered from the summary" [ "m_q3" ]
    (used steps4);
  check_base "qty >= 4" sn (q 4) rel4;
  let thits = counter "plan.template_hits" in
  let rel1, steps1 = run sn (q 1) in
  Alcotest.(check (list string)) "qty >= 1 does not use it" [] (used steps1);
  Alcotest.(check int) "not a template hit" thits (counter "plan.template_hits");
  check_base "qty >= 1" sn (q 1) rel1;
  (* the shape's entry is now the base plan; qty >= 5 re-matches the
     summary, which answers it again *)
  let rel5, steps5 = run sn (q 5) in
  Alcotest.(check (list string)) "qty >= 5 answered from the summary" [ "m_q3" ]
    (used steps5);
  check_base "qty >= 5" sn (q 5) rel5

(* s_f answers qty >= 2 through a compensating predicate, which the cost
   model credits with a smaller regroup input. For qty >= 1 it matches
   without one and costs more than p_free, which the template hit did not
   re-match: the hit must be declined and the shape planned in full. *)
let test_template_hit_dearer_route () =
  let sn =
    shape_session ~n:300
      ~summaries:
        [
          ( "s_f",
            "SELECT g, qty, SUM(v) AS s, COUNT(*) AS c FROM t WHERE qty >= 1 \
             GROUP BY g, qty" );
          ("p_free", "SELECT g, qty, SUM(v) AS s, COUNT(*) AS c FROM t GROUP BY g, qty");
        ]
      ()
  in
  let q k = Printf.sprintf "SELECT g, SUM(v) AS s FROM t WHERE qty >= %d GROUP BY g" k in
  let _, steps2 = run sn (q 2) in
  Alcotest.(check (list string)) "qty >= 2 via s_f" [ "s_f" ] (used steps2);
  let thits = counter "plan.template_hits" in
  let rel, steps1 = run sn (q 1) in
  Alcotest.(check (list string)) "qty >= 1 via p_free" [ "p_free" ] (used steps1);
  Alcotest.(check int) "not a template hit" thits (counter "plan.template_hits");
  check_base "qty >= 1" sn (q 1) rel

let test_template_hit_respects_quarantine () =
  let sn = shape_session ~summaries:free_summaries () in
  let cat = Engine.Db.catalog (Sess.db sn) in
  let planner = P.Planner.create () in
  let epoch = Store.epoch (Sess.store sn) in
  let mvs = Store.rewritable (Sess.store sn) in
  let graph k =
    Qgm.Builder.build cat
      (parse (Printf.sprintf "SELECT g, SUM(v) AS s FROM t WHERE g >= %d GROUP BY g" k))
  in
  let plan g = P.Planner.plan planner ~cat ~epoch ~mvs g in
  let r1 = plan (graph 1) in
  Alcotest.(check (list string)) "routed via m_g" [ "m_g" ] (used r1.P.Planner.pr_steps);
  let g2 = graph 2 in
  let version =
    (List.find (fun (mv : Astmatch.Rewrite.mv) -> mv.mv_name = "m_g") mvs).mv_version
  in
  P.Planner.quarantine planner ~fp:(Qgm.Fingerprint.of_graph g2) [ ("m_g", version) ];
  let r2 = plan g2 in
  Alcotest.(check bool) "quarantined summary not used" false
    (List.mem "m_g" (used r2.P.Planner.pr_steps));
  Alcotest.(check bool) "not served as a template hit" true
    (r2.P.Planner.pr_cache <> P.Planner.Template_hit);
  let rel = Engine.Exec.run (Sess.db sn) r2.P.Planner.pr_graph in
  check_base "quarantined fingerprint" sn
    "SELECT g, SUM(v) AS s FROM t WHERE g >= 2 GROUP BY g" rel;
  (* the quarantine is per exact fingerprint: another constant still
     reaches m_g *)
  let r3 = plan (graph 3) in
  Alcotest.(check (list string)) "other constants still use m_g" [ "m_g" ]
    (used r3.P.Planner.pr_steps);
  (* an entry planned while m_g was held never judged m_g, so it serves
     no other constants: the next shape instance is planned in full *)
  let planner = P.Planner.create () in
  let plan g = P.Planner.plan planner ~cat ~epoch ~mvs g in
  let g4 = graph 4 in
  P.Planner.quarantine planner ~fp:(Qgm.Fingerprint.of_graph g4) [ ("m_g", version) ];
  Alcotest.(check bool) "held: routed elsewhere" false
    (List.mem "m_g" (used (plan g4).P.Planner.pr_steps));
  let r5 = plan (graph 5) in
  Alcotest.(check (list string)) "next constants reach m_g again" [ "m_g" ]
    (used r5.P.Planner.pr_steps);
  Alcotest.(check bool) "planned in full" true (r5.P.Planner.pr_cache = P.Planner.Miss)

let test_template_entry_epoch () =
  let sn = shape_session ~summaries:free_summaries () in
  let q k = Printf.sprintf "SELECT g, SUM(v) AS s FROM t WHERE g >= %d GROUP BY g" k in
  ignore (run sn (q 1));
  script sn "INSERT INTO t VALUES (1, 1, 1, 1);";
  let inval = counter "plan.cache_invalidated"
  and misses = counter "plan.cache_misses"
  and thits = counter "plan.template_hits" in
  let rel, steps = run sn (q 2) in
  Alcotest.(check int) "template entry invalidated" (inval + 1)
    (counter "plan.cache_invalidated");
  Alcotest.(check int) "planned in full" (misses + 1) (counter "plan.cache_misses");
  Alcotest.(check int) "no template hit" thits (counter "plan.template_hits");
  Alcotest.(check bool) "still rewritten" true (steps <> []);
  check_base "after the epoch bump" sn (q 2) rel

(* ---------------- soundness: a template hit plans as a fresh planner ---------------- *)

(* [g] with every literal that the template fingerprint makes a slot (a
   comparison operand under AND / OR / NOT in a WHERE or HAVING
   predicate) moved to a nearby value of the same type: the same shape
   with other constants. *)
let perturb rng g =
  let module B = Qgm.Box in
  let module E = Qgm.Expr in
  let module G = Qgm.Graph in
  let module V = Data.Value in
  let move = function
    | V.Int n -> V.Int (n + Random.State.int rng 7 - 3)
    | V.Float x -> V.Float (x +. (0.05 *. float_of_int (Random.State.int rng 5 - 2)))
    | V.Str _ -> V.Str [| "x"; "y"; "z" |].(Random.State.int rng 3)
    | v -> v
  in
  let operand = function E.Const v -> E.Const (move v) | e -> e in
  let rec pred = function
    | E.Binop (op, a, b) when List.mem op [ "="; "<>"; "<"; "<="; ">"; ">=" ] ->
        E.Binop (op, operand a, operand b)
    | E.Binop ((("AND" | "OR") as op), a, b) -> E.Binop (op, pred a, pred b)
    | E.Unop ("NOT", a) -> E.Unop ("NOT", pred a)
    | e -> e
  in
  List.fold_left
    (fun g id ->
      match (G.box g id).B.body with
      | B.Select sel ->
          G.update_box g id
            (B.Select { sel with B.sel_preds = List.map pred sel.B.sel_preds })
      | _ -> g)
    g
    (G.reachable g (G.root g))

type tally = { mutable template_hits : int; mutable rewritten : int }

let tally = { template_hits = 0; rewritten = 0 }

(* Materialize [summaries] (SQL) over [db], then plan [query] and, four
   times, the same shape with other constants: on a planner that has
   planned [query] and on a fresh one. Every template hit must choose the
   fresh planner's route, and its plan must answer what the fresh plan
   answers. *)
let template_agrees ~seed db ~query ~summaries =
  let rng = Random.State.make [| seed |] in
  let db, mvs =
    List.fold_left
      (fun (db, mvs) (i, sql) ->
        let mv_name = Printf.sprintf "tmv%d" i in
        let ag = Helpers.build (Engine.Db.catalog db) sql in
        let db, _ = Helpers.with_mv ~mv_name db ag in
        (db, mvs @ [ { Astmatch.Rewrite.mv_name; mv_graph = ag; mv_version = 0 } ]))
      (db, [])
      (List.mapi (fun i sql -> (i, sql)) summaries)
  in
  let cat = Engine.Db.catalog db in
  let plan p g = P.Planner.plan p ~cat ~epoch:0 ~mvs g in
  let g1 = Helpers.build cat query in
  List.for_all
    (fun _ ->
      let g2 = perturb rng g1 in
      let warm = P.Planner.create () in
      ignore (plan warm g1);
      let r = plan warm g2 in
      r.P.Planner.pr_cache <> P.Planner.Template_hit
      ||
      let fresh = plan (P.Planner.create ()) g2 in
      tally.template_hits <- tally.template_hits + 1;
      if r.pr_steps <> [] then tally.rewritten <- tally.rewritten + 1;
      if used r.pr_steps <> used fresh.P.Planner.pr_steps then
        QCheck.Test.fail_reportf "route mismatch: template hit [%s], fresh [%s] on %s"
          (String.concat ", " (used r.pr_steps))
          (String.concat ", " (used fresh.pr_steps))
          (Qgm.Unparse.to_sql g2)
      else if
        not
          (R.bag_equal_approx
             (Engine.Exec.run db fresh.pr_graph)
             (Engine.Exec.run db r.pr_graph))
      then
        QCheck.Test.fail_reportf "bag inequality on %s" (Qgm.Unparse.to_sql g2)
      else true)
    [ 1; 2; 3; 4 ]

(* The rewrite samplers' star schema with ten times the Trans rows (960),
   so that summaries are estimated cheaper than the base plan. *)
let star_db =
  lazy
    (let module W = Workload.Star_schema in
     Engine.Db.of_tables (W.catalog ())
       (W.generate
          {
            W.default_params with
            n_custs = 6;
            n_locs = 8;
            trans_per_acct_year = 40;
            years = [ 1994; 1995 ];
          }))

(* Star-schema queries of the rewrite samplers, with at least one
   filter; summaries: the covering AST grouped also on the columns the
   query filters on, the same AST filtered like the query (so its match
   depends on the constants), and an independent one. *)
let gen_star_case =
  let module T = Test_random_rewrites in
  (* the dimension each filter reads: year(date), month(date), qty *)
  let filter_dim = [| Some 3; Some 4; Some 5; None |] in
  QCheck.Gen.(
    let* q, a = T.gen_related in
    let* f = int_bound (Array.length T.filters - 1) in
    let q = { q with T.sp_filters = List.sort_uniq compare (f :: q.T.sp_filters) } in
    let a =
      {
        a with
        T.sp_dims =
          List.sort_uniq compare
            (a.T.sp_dims @ List.filter_map (Array.get filter_dim) q.T.sp_filters);
      }
    in
    let* all = bool in
    let sub = if all then q.T.sp_filters else [ List.hd q.T.sp_filters ] in
    let* b = T.gen_spec in
    let* seed = int in
    return
      ( T.spec_to_sql q,
        List.map T.spec_to_sql [ a; { a with T.sp_filters = sub }; b ],
        seed ))

(* The executor-differential grammar on the tiny schema: the query with
   at least one filter, its own shape filtered on a subset of those
   filters as one summary, and an independent summary. *)
let gen_tiny_case =
  let module D = Test_differential in
  QCheck.Gen.(
    let* q = D.gen_spec in
    let* f = int_bound (Array.length D.filters - 1) in
    let q = { q with D.qs_filters = List.sort_uniq compare (f :: q.D.qs_filters) } in
    let* b = D.gen_spec in
    let* seed = int in
    return
      ( D.sql_of q,
        [ D.sql_of { q with D.qs_filters = [ List.hd q.D.qs_filters ] }; D.sql_of b ],
        seed ))

let print_case (query, summaries, seed) =
  Printf.sprintf "query: %s\nsummaries:\n  %s\nseed: %d" query
    (String.concat "\n  " summaries) seed

let prop_template name ~count gen db =
  QCheck.Test.make ~name ~count (QCheck.make ~print:print_case gen)
    (fun (query, summaries, seed) ->
      template_agrees ~seed (Lazy.force db) ~query ~summaries)

let test_template_soundness () =
  tally.template_hits <- 0;
  tally.rewritten <- 0;
  QCheck.Test.check_exn
    (prop_template "star samplers" ~count:300 gen_star_case star_db);
  QCheck.Test.check_exn
    (prop_template "differential grammar" ~count:200 gen_tiny_case
       Test_differential.db);
  Alcotest.(check bool)
    (Printf.sprintf "at least 500 template hits (%d, %d rewritten)"
       tally.template_hits tally.rewritten)
    true
    (tally.template_hits >= 500)

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
    Alcotest.test_case "template hit re-matches only the route" `Quick
      test_template_hit_rematches_route;
    Alcotest.test_case "template hit re-matches a filtering summary" `Quick
      test_template_hit_sensitive_summary;
    Alcotest.test_case "template hit declines a dearer route" `Quick
      test_template_hit_dearer_route;
    Alcotest.test_case "template hit skips a quarantined pair" `Quick
      test_template_hit_respects_quarantine;
    Alcotest.test_case "epoch bump invalidates a template entry" `Quick
      test_template_entry_epoch;
    Alcotest.test_case "template hits plan as a fresh planner" `Quick
      test_template_soundness;
  ]
