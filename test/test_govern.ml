(* Resource governance and self-healing maintenance: cooperative budgets
   (wall-clock deadline, match/candidate/row caps) degrade planning to the
   best-so-far plan and rewritten execution to the base plan — resource
   pressure can cost performance, never correctness or an escaped
   exception — degraded decisions are never cached, and summary tables
   left stale by DML are auto-refreshed at statement boundaries with
   exponential backoff and quarantine after repeated refresh failures. *)

module Sess = Mvstore.Session
module Store = Mvstore.Store
module Maint = Mvstore.Maint
module R = Data.Relation
module P = Plancache
module F = Guard.Fault
module GE = Guard.Error
module B = Govern.Budget

let script sn sql = ignore (Sess.exec_sql sn sql)
let parse = Sqlsyn.Parser.parse_query
(* [limits] replaces the session's budget for this statement only *)
let run ?limits sn sql =
  let config =
    Option.map (fun limits -> { (Sess.config sn) with limits }) limits
  in
  Sess.run_query ?config sn (parse sql)

let set_limits sn limits = Sess.set_config sn { (Sess.config sn) with limits }

let with_clean_faults f =
  F.disarm_all ();
  Fun.protect ~finally:F.disarm_all f

let counter_value name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

let check_equal what sn plain q =
  let via, _ = run sn q in
  let direct, _ = run plain q in
  Alcotest.(check bool)
    (Printf.sprintf "%s: equals rewrite-off" what)
    true
    (R.bag_equal_approx via direct)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ---------------- budget unit semantics ---------------- *)

let test_budget_unit () =
  Alcotest.(check bool) "unlimited is unlimited" true
    (B.is_unlimited B.unlimited);
  Alcotest.(check string) "unlimited describes" "unlimited"
    (B.describe B.unlimited);
  let l = B.limits ~deadline_ms:10. ~matches:2 () in
  Alcotest.(check bool) "limits not unlimited" false (B.is_unlimited l);
  Alcotest.(check string) "describe" "deadline=10ms matches=2" (B.describe l);
  (* the None path is free at any volume *)
  B.check_deadline None;
  B.tick_match None;
  B.tick_candidate None;
  B.tick_rows None 1_000_000;
  (* match cap: the first tick past the limit records the reason, raises,
     and keeps raising on every later tick *)
  let b = B.start (B.limits ~matches:2 ()) in
  Alcotest.(check bool) "fresh budget" true (B.exhausted b = None);
  B.tick_match (Some b);
  B.tick_match (Some b);
  (match B.tick_match (Some b) with
  | exception B.Budget_exhausted B.Match_budget -> ()
  | () -> Alcotest.fail "third match tick must exhaust"
  | exception e -> raise e);
  Alcotest.(check bool) "reason recorded" true
    (B.exhausted b = Some B.Match_budget);
  (match B.tick_match (Some b) with
  | exception B.Budget_exhausted B.Match_budget -> ()
  | _ -> Alcotest.fail "exhausted budget must keep raising");
  Alcotest.(check string) "reason name" "match-budget"
    (B.reason_name B.Match_budget);
  (* row cap counts units, not calls *)
  let b = B.start (B.limits ~rows:10 ()) in
  B.tick_rows (Some b) 10;
  (match B.tick_rows (Some b) 1 with
  | exception B.Budget_exhausted B.Row_budget -> ()
  | _ -> Alcotest.fail "row tick past the cap must exhaust");
  (* a deadline in the past trips on the next check *)
  let b = B.start (B.limits ~deadline_ms:0.001 ()) in
  Unix.sleepf 0.005;
  (match B.check_deadline (Some b) with
  | exception B.Budget_exhausted B.Deadline -> ()
  | _ -> Alcotest.fail "expired deadline must exhaust");
  Alcotest.(check bool) "deadline recorded" true
    (B.exhausted b = Some B.Deadline)

let test_env_knobs () =
  let saved_d = Sys.getenv_opt "ASTQL_DEADLINE_MS" in
  let saved_m = Sys.getenv_opt "ASTQL_MATCH_BUDGET" in
  let restore () =
    Unix.putenv "ASTQL_DEADLINE_MS" (Option.value saved_d ~default:"");
    Unix.putenv "ASTQL_MATCH_BUDGET" (Option.value saved_m ~default:"")
  in
  Fun.protect ~finally:restore @@ fun () ->
  Unix.putenv "ASTQL_DEADLINE_MS" "7.5";
  Unix.putenv "ASTQL_MATCH_BUDGET" "123";
  let l = B.default_limits () in
  Alcotest.(check bool) "deadline from env" true
    (l.B.bl_deadline_ms = Some 7.5);
  Alcotest.(check bool) "match budget from env" true
    (l.B.bl_matches = Some 123);
  Unix.putenv "ASTQL_DEADLINE_MS" "";
  Unix.putenv "ASTQL_MATCH_BUDGET" "";
  Alcotest.(check bool) "empty env is unlimited" true
    (B.is_unlimited (B.default_limits ()));
  (* a malformed, negative, zero or nan value is refused by name — never
     read as "unlimited" nor as a deadline that every statement blows *)
  List.iter
    (fun (var, v) ->
      Unix.putenv "ASTQL_DEADLINE_MS" "";
      Unix.putenv "ASTQL_MATCH_BUDGET" "";
      Unix.putenv var v;
      match B.default_limits () with
      | _ -> Alcotest.failf "%s=%s accepted" var v
      | exception Invalid_argument m ->
          Alcotest.(check bool)
            (Printf.sprintf "%s=%s names the variable" var v)
            true (contains m var))
    [
      ("ASTQL_DEADLINE_MS", "abc");
      ("ASTQL_DEADLINE_MS", "-5");
      ("ASTQL_DEADLINE_MS", "0");
      ("ASTQL_DEADLINE_MS", "nan");
      ("ASTQL_MATCH_BUDGET", "abc");
      ("ASTQL_MATCH_BUDGET", "-5");
      ("ASTQL_MATCH_BUDGET", "0");
      ("ASTQL_MATCH_BUDGET", "nan");
    ]

(* ---------------- deadline degradation at scale ---------------- *)

(* A pair of sessions over the same data; [sn] carries [n] competing
   summary tables so that routing has real work to truncate. *)
let many_mv_pair n =
  let sn = Sess.create () in
  let plain = Sess.create ~config:(Helpers.no_rewrite ()) () in
  let both sql =
    script sn sql;
    script plain sql
  in
  both
    "CREATE TABLE t (g INT NOT NULL, h INT NOT NULL, v INT NOT NULL); \
     INSERT INTO t VALUES (1, 1, 10), (1, 2, 20), (2, 1, 5), (2, 2, 7), \
     (3, 1, 8), (3, 2, 9);";
  for i = 0 to n - 1 do
    script sn
      (Printf.sprintf
         "CREATE SUMMARY TABLE m%d AS SELECT g, h, SUM(v) AS s, COUNT(*) AS \
          c FROM t GROUP BY g, h;"
         i)
  done;
  (sn, plain)

let mix =
  [
    "SELECT g, SUM(v) AS s FROM t GROUP BY g";
    "SELECT g, h, SUM(v) AS s FROM t GROUP BY g, h";
    "SELECT h, COUNT(*) AS c FROM t GROUP BY h";
    "SELECT g, SUM(v) AS s FROM t GROUP BY g HAVING SUM(v) > 10";
    "SELECT DISTINCT g FROM t";
    "SELECT g, v FROM t";
  ]

let test_deadline_degrades_never_wrong () =
  with_clean_faults @@ fun () ->
  let sn, plain = many_mv_pair 64 in
  (* every match-function call from the 2nd on stalls 2 ms: a 1 ms deadline
     is guaranteed to trip mid-planning on every rewritable query *)
  F.set_delay_ms 2.0;
  F.arm F.Delay ~after:2;
  let limits = B.limits ~deadline_ms:1.0 () in
  let c0 = counter_value "govern.budget_exhausted" in
  List.iter
    (fun q ->
      let via, _ = run ~limits sn q in
      let direct, _ = run plain q in
      Alcotest.(check bool)
        (Printf.sprintf "under deadline: %s" q)
        true
        (R.bag_equal_approx via direct))
    mix;
  Alcotest.(check bool) "budget exhaustion counted" true
    (counter_value "govern.budget_exhausted" > c0);
  Alcotest.(check bool) "degraded plans counted" true
    ((Sess.stats sn).P.Stats.degraded >= 1);
  F.disarm_all ();
  (* back under the unlimited session default the same queries rewrite *)
  let _, steps = run sn "SELECT g, h, SUM(v) AS s FROM t GROUP BY g, h" in
  Alcotest.(check bool) "rewrites without the deadline" true (steps <> [])

let test_degraded_plan_not_cached () =
  with_clean_faults @@ fun () ->
  let sn, plain = many_mv_pair 2 in
  let q = "SELECT g, h, SUM(v) AS s FROM t GROUP BY g, h" in
  let tight = B.limits ~matches:1 () in
  let via, steps = run ~limits:tight sn q in
  Alcotest.(check bool) "truncated to the base plan" true (steps = []);
  let direct, _ = run plain q in
  Alcotest.(check bool) "truncated result correct" true
    (R.bag_equal_approx via direct);
  Alcotest.(check bool) "degraded counted" true
    ((Sess.stats sn).P.Stats.degraded >= 1);
  Alcotest.(check int) "best-so-far decision not cached" 0
    (P.Planner.cache_length (Sess.planner sn));
  (* warm re-plan under the adequate (unlimited) default re-attempts and
     finds the rewrite the truncated pass missed *)
  let _, steps = run sn q in
  Alcotest.(check bool) "adequate budget finds the rewrite" true (steps <> []);
  Alcotest.(check bool) "and caches it" true
    (P.Planner.cache_length (Sess.planner sn) >= 1)

let test_exec_row_budget_falls_back () =
  with_clean_faults @@ fun () ->
  let sn, plain = many_mv_pair 1 in
  let q = "SELECT g, h, SUM(v) AS s FROM t GROUP BY g, h" in
  (* sanity: rewrites when ungoverned *)
  let _, steps = run sn q in
  Alcotest.(check bool) "rewrites when ungoverned" true (steps <> []);
  (* the rewritten plan reads 6 summary rows: a 2-row budget trips at an
     executor operator boundary and the base plan is re-run unbudgeted *)
  let d0 = counter_value "govern.exec_degraded" in
  let fb0 = (Sess.stats sn).P.Stats.fallbacks in
  let via, steps = run ~limits:(B.limits ~rows:2 ()) sn q in
  Alcotest.(check bool) "served by the base plan" true (steps = []);
  let direct, _ = run plain q in
  Alcotest.(check bool) "result correct" true (R.bag_equal_approx via direct);
  Alcotest.(check bool) "exec degradation counted" true
    (counter_value "govern.exec_degraded" > d0);
  Alcotest.(check bool) "fallback counted" true
    ((Sess.stats sn).P.Stats.fallbacks > fb0);
  (* the plan itself was fine: nothing may have been quarantined *)
  Alcotest.(check int) "no quarantine for a budget fallback" 0
    (P.Planner.quarantine_length (Sess.planner sn));
  (* and with the budget lifted the rewrite serves again *)
  let _, steps = run sn q in
  Alcotest.(check bool) "rewrite back without the cap" true (steps <> [])

let test_explain_reports_degraded () =
  with_clean_faults @@ fun () ->
  let sn, _ = many_mv_pair 2 in
  let q = parse "SELECT g, h, SUM(v) AS s FROM t GROUP BY g, h" in
  set_limits sn (B.limits ~matches:1 ());
  let plan = Sess.explain sn q in
  Alcotest.(check bool) "EXPLAIN mentions degraded" true
    (contains plan "degraded: match-budget");
  Alcotest.(check bool) "EXPLAIN says not cached" true
    (contains plan "not cached");
  set_limits sn B.unlimited;
  let plan = Sess.explain sn q in
  Alcotest.(check bool) "no degraded line when ungoverned" false
    (contains plan "degraded:")

(* ---------------- self-healing maintenance ---------------- *)

(* A HAVING summary is not incrementally maintainable: INSERT leaves it
   stale, which is what the maintenance queue exists to heal. *)
let maint_pair () =
  let sn =
    Sess.create ~config:{ (Sess.default_config ()) with auto_maint = true } ()
  in
  let plain = Sess.create ~config:(Helpers.no_rewrite ()) () in
  let both sql =
    script sn sql;
    script plain sql
  in
  both
    "CREATE TABLE t (g INT NOT NULL, v INT NOT NULL); \
     INSERT INTO t VALUES (1, 10), (1, 20), (2, 5), (3, 8);";
  script sn
    "CREATE SUMMARY TABLE m AS SELECT g, SUM(v) AS s FROM t GROUP BY g \
     HAVING SUM(v) > 5;";
  (sn, plain, both)

let maint_q = "SELECT g, SUM(v) AS s FROM t GROUP BY g HAVING SUM(v) > 5"

let test_auto_refresh_heals_stale () =
  with_clean_faults @@ fun () ->
  let sn, plain, both = maint_pair () in
  let _, steps = run sn maint_q in
  Alcotest.(check bool) "rewrites while fresh" true (steps <> []);
  let r0 = counter_value "govern.maint.auto_refreshes" in
  both "INSERT INTO t VALUES (2, 100);";
  Alcotest.(check bool) "stale after insert" false
    (Option.get (Store.find (Sess.store sn) "m")).Store.e_fresh;
  Alcotest.(check bool) "enqueued for maintenance" true
    (Maint.is_queued (Sess.maint sn) "m");
  (* the very next statement boundary heals it, and the healed summary
     serves the rewrite with the correct (post-insert) contents *)
  let via, steps = run sn maint_q in
  Alcotest.(check bool) "auto-refreshed at the next boundary" true
    (steps <> []);
  let direct, _ = run plain maint_q in
  Alcotest.(check bool) "healed result correct" true
    (R.bag_equal_approx via direct);
  Alcotest.(check bool) "fresh again" true
    (Option.get (Store.find (Sess.store sn) "m")).Store.e_fresh;
  Alcotest.(check bool) "dequeued" false (Maint.is_queued (Sess.maint sn) "m");
  Alcotest.(check int) "success counted" 1 (Maint.refreshed (Sess.maint sn));
  Alcotest.(check bool) "auto-refresh metric ticked" true
    (counter_value "govern.maint.auto_refreshes" > r0)

let test_auto_maint_is_opt_in () =
  with_clean_faults @@ fun () ->
  let sn = Sess.create () in
  script sn
    "CREATE TABLE t (g INT NOT NULL, v INT NOT NULL); \
     INSERT INTO t VALUES (1, 10), (2, 5); \
     CREATE SUMMARY TABLE m AS SELECT g, SUM(v) AS s FROM t GROUP BY g \
     HAVING SUM(v) > 5; \
     INSERT INTO t VALUES (2, 100);";
  (* stale tables are still observed and enqueued... *)
  Alcotest.(check bool) "enqueued" true (Maint.is_queued (Sess.maint sn) "m");
  (* ...but with auto_maint off nothing drains: PR 2/3 semantics intact *)
  let _, steps = run sn maint_q in
  Alcotest.(check bool) "stale summary stays unused" true (steps = []);
  Alcotest.(check bool) "still stale" false
    (Option.get (Store.find (Sess.store sn) "m")).Store.e_fresh;
  (* the queue surfaces in EXPLAIN *)
  let plan = Sess.explain sn (parse maint_q) in
  Alcotest.(check bool) "EXPLAIN shows the queue" true
    (contains plan "maintenance: queued(1)")

let test_refresh_backoff_and_quarantine () =
  with_clean_faults @@ fun () ->
  let sn, plain, both = maint_pair () in
  both "INSERT INTO t VALUES (2, 100);";
  let mq = Sess.maint sn in
  let f0 = counter_value "govern.maint.refresh_failures" in
  (* attempt 1: the injected refresh fault fails it *)
  F.arm F.Refresh ~after:1;
  let via, steps = run sn maint_q in
  Alcotest.(check bool) "refresh fault consumed" false (F.armed F.Refresh);
  Alcotest.(check bool) "degraded to the base plan" true (steps = []);
  let direct, _ = run plain maint_q in
  Alcotest.(check bool) "result correct despite failure" true
    (R.bag_equal_approx via direct);
  Alcotest.(check int) "one failed attempt" 1 (Maint.failures mq);
  Alcotest.(check bool) "failure metric ticked" true
    (counter_value "govern.maint.refresh_failures" > f0);
  Alcotest.(check bool) "still queued (will retry)" true
    (Maint.is_queued mq "m");
  (* exponential backoff: the immediately following boundary must NOT
     retry (the armed fault would have been consumed) *)
  F.arm F.Refresh ~after:1;
  ignore (run sn maint_q);
  Alcotest.(check bool) "backoff: no retry one boundary later" true
    (F.armed F.Refresh);
  Alcotest.(check int) "no new attempt during backoff" 1 (Maint.failures mq);
  (* attempt 2 fires at the backed-off boundary (base * 2^0 = 2 ticks) *)
  ignore (run sn maint_q);
  Alcotest.(check bool) "retry at the backed-off tick" false
    (F.armed F.Refresh);
  Alcotest.(check int) "second failed attempt" 2 (Maint.failures mq);
  (* attempt 3 (base * 2^1 = 4 ticks out) exhausts max_retries = 3 *)
  let q0 = counter_value "govern.maint.quarantined" in
  F.arm F.Refresh ~after:1;
  for _ = 1 to 4 do
    ignore (run sn maint_q)
  done;
  Alcotest.(check int) "third failed attempt" 3 (Maint.failures mq);
  Alcotest.(check bool) "quarantined after max retries" true
    (Maint.is_quarantined mq "m");
  Alcotest.(check bool) "off the retry queue" false (Maint.is_queued mq "m");
  Alcotest.(check bool) "quarantine metric ticked" true
    (counter_value "govern.maint.quarantined" > q0);
  (match Maint.quarantined mq with
  | [ held ] ->
      Alcotest.(check bool) "hold records the classified refresh error" true
        (held.Maint.mq_error.GE.err_stage = GE.Refresh
        && held.Maint.mq_error.GE.err_kind = GE.Injected)
  | held ->
      Alcotest.failf "expected one quarantined table, got %d"
        (List.length held));
  (* quarantined: no further attempts, however many boundaries pass *)
  F.arm F.Refresh ~after:1;
  for _ = 1 to 3 do
    ignore (run sn maint_q)
  done;
  Alcotest.(check bool) "no attempts while quarantined" true
    (F.armed F.Refresh);
  F.disarm_all ();
  check_equal "correct on the base plan throughout" sn plain maint_q;
  (* \health names the hold *)
  let h = Sess.health sn in
  Alcotest.(check bool) "health reports the quarantined table" true
    (contains h "quarantined m:");
  (* a manual REFRESH voids the hold and heals the table for good *)
  script sn "REFRESH SUMMARY TABLE m;";
  Alcotest.(check bool) "hold cleared by manual refresh" false
    (Maint.is_quarantined mq "m");
  let _, steps = run sn maint_q in
  Alcotest.(check bool) "rewrites again after manual refresh" true
    (steps <> []);
  check_equal "healed result correct" sn plain maint_q

let test_maint_budget_defers_without_penalty () =
  with_clean_faults @@ fun () ->
  let sn, plain, both = maint_pair () in
  both "INSERT INTO t VALUES (2, 100);";
  let mq = Sess.maint sn in
  (* a session budget tight enough that the refresh recomputation cannot
     finish: the drain defers the task — no failure, no backoff penalty *)
  let d0 = counter_value "govern.maint.deferred" in
  set_limits sn (B.limits ~rows:1 ());
  ignore (run sn maint_q);
  Alcotest.(check bool) "deferred, still queued" true (Maint.is_queued mq "m");
  Alcotest.(check int) "not a failure" 0 (Maint.failures mq);
  Alcotest.(check bool) "deferral counted" true
    (counter_value "govern.maint.deferred" > d0);
  (* budget restored: the next boundary heals it *)
  set_limits sn B.unlimited;
  let via, steps = run sn maint_q in
  Alcotest.(check bool) "healed once the budget allows" true (steps <> []);
  let direct, _ = run plain maint_q in
  Alcotest.(check bool) "healed result correct" true
    (R.bag_equal_approx via direct)

(* DROP while queued: the drain must forget the task, not refresh a ghost *)
let test_drop_clears_queue () =
  with_clean_faults @@ fun () ->
  let sn, _, both = maint_pair () in
  both "INSERT INTO t VALUES (2, 100);";
  Alcotest.(check bool) "queued" true (Maint.is_queued (Sess.maint sn) "m");
  script sn "DROP SUMMARY TABLE m;";
  Alcotest.(check bool) "drop clears the queue" false
    (Maint.is_queued (Sess.maint sn) "m");
  (* and the next boundary is a clean no-op *)
  let _, steps = run sn maint_q in
  Alcotest.(check bool) "no summary, no rewrite, no crash" true (steps = [])

(* ---------------- fatal errors stay fatal ---------------- *)

let test_sandbox_fatal_not_swallowed () =
  (* asynchronous resource exhaustion must not be classified into a routine
     fallback: Sandbox.protect re-raises it as a typed Guard.Error.Fatal
     carrying the stage/table context *)
  (match
     Guard.Sandbox.protect ~stage:GE.Match ~mv:"m" (fun () ->
         raise Stack_overflow)
   with
  | exception GE.Fatal e ->
      Alcotest.(check bool) "stack overflow surfaces as Fatal" true
        (e.GE.err_stage = GE.Match
        && e.GE.err_mv = Some "m"
        && (match e.GE.err_kind with GE.Resource _ -> true | _ -> false))
  | _ -> Alcotest.fail "Stack_overflow must not be contained");
  (match
     Guard.Sandbox.protect ~stage:GE.Execute (fun () -> raise Out_of_memory)
   with
  | exception GE.Fatal e ->
      Alcotest.(check bool) "OOM surfaces as Fatal" true
        (match e.GE.err_kind with GE.Resource _ -> true | _ -> false)
  | _ -> Alcotest.fail "Out_of_memory must not be contained");
  (* budget exhaustion likewise passes through for the governed catchers *)
  let b = B.start (B.limits ~matches:0 ()) in
  match
    Guard.Sandbox.protect ~stage:GE.Match (fun () -> B.tick_match (Some b))
  with
  | exception B.Budget_exhausted B.Match_budget -> ()
  | _ -> Alcotest.fail "Budget_exhausted must pass through the sandbox"

let suite =
  [
    Alcotest.test_case "budget unit semantics" `Quick test_budget_unit;
    Alcotest.test_case "environment knobs" `Quick test_env_knobs;
    Alcotest.test_case "deadline degrades, never wrong" `Quick
      test_deadline_degrades_never_wrong;
    Alcotest.test_case "degraded plan not cached" `Quick
      test_degraded_plan_not_cached;
    Alcotest.test_case "exec row budget falls back" `Quick
      test_exec_row_budget_falls_back;
    Alcotest.test_case "EXPLAIN reports degradation" `Quick
      test_explain_reports_degraded;
    Alcotest.test_case "auto-refresh heals stale summaries" `Quick
      test_auto_refresh_heals_stale;
    Alcotest.test_case "auto-maintenance is opt-in" `Quick
      test_auto_maint_is_opt_in;
    Alcotest.test_case "refresh backoff and quarantine" `Quick
      test_refresh_backoff_and_quarantine;
    Alcotest.test_case "budget defers maintenance without penalty" `Quick
      test_maint_budget_defers_without_penalty;
    Alcotest.test_case "drop clears the maintenance queue" `Quick
      test_drop_clears_queue;
    Alcotest.test_case "fatal errors stay fatal" `Quick
      test_sandbox_fatal_not_swallowed;
  ]
