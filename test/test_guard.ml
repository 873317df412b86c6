(* The fault-isolation subsystem: deterministic fault injection at every
   pipeline stage must degrade to the base plan (result-identical to a
   rewrite-off session, zero uncaught exceptions), failing candidates are
   quarantined per (query-fingerprint x summary-table x definition-version)
   and expire exactly when the table's definition version moves (REFRESH,
   DROP + re-CREATE) — never on unrelated DML — runtime verification
   catches an injected result corruption and serves the correct answer, and
   a seeded randomized workload under injection stays bag-equal to a plain
   session. *)

module Sess = Mvstore.Session
module Store = Mvstore.Store
module R = Data.Relation
module P = Plancache
module F = Guard.Fault
module GE = Guard.Error
module Q = Guard.Quarantine

let script sn sql = ignore (Sess.exec_sql sn sql)
let parse = Sqlsyn.Parser.parse_query
let run sn sql = Sess.run_query sn (parse sql)

(* every test starts and ends with no armed faults *)
let with_clean_faults f =
  F.disarm_all ();
  Fun.protect ~finally:F.disarm_all f

let default_summary =
  "CREATE SUMMARY TABLE m AS SELECT g, SUM(v) AS s, COUNT(*) AS c FROM t \
   GROUP BY g;"

let grouped_pair ?verify ?(summary = default_summary) () =
  let sn = Sess.create ?verify () in
  let plain = Sess.create ~rewrite:false () in
  let both sql =
    script sn sql;
    script plain sql
  in
  both
    "CREATE TABLE t (g INT NOT NULL, v INT NOT NULL); \
     INSERT INTO t VALUES (1, 10), (1, 20), (2, 5), (3, 8);";
  both summary;
  (sn, plain, both)

let check_equal what sn plain q =
  let via, _ = run sn q in
  let direct, _ = run plain q in
  Alcotest.(check bool)
    (Printf.sprintf "%s: equals rewrite-off" what)
    true
    (R.bag_equal_approx via direct)

(* ---------------- fault unit tests ---------------- *)

let test_fault_countdown () =
  with_clean_faults @@ fun () ->
  Alcotest.(check bool) "initially disarmed" false (F.armed F.Match);
  Alcotest.(check bool) "disarmed fire is false" false (F.fire F.Match);
  F.arm F.Match ~after:3;
  Alcotest.(check bool) "hit 1" false (F.fire F.Match);
  Alcotest.(check bool) "hit 2" false (F.fire F.Match);
  Alcotest.(check bool) "hit 3 fires" true (F.fire F.Match);
  Alcotest.(check bool) "one-shot: disarmed after firing" false
    (F.armed F.Match);
  Alcotest.(check bool) "hit 4 is a no-op" false (F.fire F.Match);
  Alcotest.check_raises "arm 0 rejected"
    (Invalid_argument "Fault.arm: after must be positive") (fun () ->
      F.arm F.Match ~after:0)

let test_fault_hit_raises () =
  with_clean_faults @@ fun () ->
  F.arm F.Compensate ~after:1;
  Alcotest.check_raises "hit raises Injected" (F.Injected F.Compensate)
    (fun () -> F.hit F.Compensate)

let test_arm_spec () =
  with_clean_faults @@ fun () ->
  (match F.arm_spec "match:2, corrupt" with
  | Ok () -> ()
  | Error m -> Alcotest.failf "spec rejected: %s" m);
  Alcotest.(check bool) "match armed" true (F.armed F.Match);
  Alcotest.(check bool) "corrupt armed" true (F.armed F.Corrupt);
  Alcotest.(check bool) "navigate untouched" false (F.armed F.Navigate);
  Alcotest.(check bool) "match fires on 2nd hit" false (F.fire F.Match);
  Alcotest.(check bool) "match fires on 2nd hit (2)" true (F.fire F.Match);
  Alcotest.(check bool) "unknown point rejected" true
    (Result.is_error (F.arm_spec "frobnicate"));
  Alcotest.(check bool) "bad count rejected" true
    (Result.is_error (F.arm_spec "match:0"));
  Alcotest.(check bool) "empty spec is a no-op" true (F.arm_spec "" = Ok ())

let test_corrupt_value () =
  let module V = Data.Value in
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Format.asprintf "corruption changes %a" V.pp v)
        false
        (V.equal v (F.corrupt_value v)))
    [ V.Int 7; V.Float 1.5; V.Str "x"; V.Bool true; V.Null; V.date 1995 6 1 ]

(* ---------------- sandbox classification ---------------- *)

let test_sandbox_classify () =
  with_clean_faults @@ fun () ->
  let classify exn =
    match
      Guard.Sandbox.protect ~stage:GE.Match ~mv:"m" (fun () -> raise exn)
    with
    | Ok _ -> Alcotest.fail "exception not contained"
    | Error e -> e
  in
  Alcotest.(check bool) "ok passes through" true
    (Guard.Sandbox.protect ~stage:GE.Match (fun () -> 41 + 1) = Ok 42);
  let e = classify (Failure "boom") in
  Alcotest.(check bool) "Failure classified" true
    (e.GE.err_kind = GE.Failed "boom" && e.GE.err_mv = Some "m");
  Alcotest.(check bool) "Invalid_argument classified" true
    ((classify (Invalid_argument "x")).GE.err_kind = GE.Invalid "x");
  Alcotest.(check bool) "Division_by_zero classified" true
    ((classify Division_by_zero).GE.err_kind = GE.Div_zero);
  Alcotest.(check bool) "assert classified" true
    ((classify (Assert_failure ("f", 1, 2))).GE.err_kind = GE.Assertion);
  (* the injection point knows better than the catch site where it struck *)
  let e = classify (F.Injected F.Translate) in
  Alcotest.(check bool) "injected fault overrides stage" true
    (e.GE.err_kind = GE.Injected && e.GE.err_stage = GE.Translate);
  Alcotest.(check bool) "to_string mentions the stage" true
    (String.length (GE.to_string e) > 0)

(* ---------------- quarantine unit tests ---------------- *)

let test_quarantine_unit () =
  let q = Q.create ~capacity:2 () in
  let versions = [ ("m1", 1); ("m2", 1) ] in
  Alcotest.(check bool) "fresh add" true (Q.add q ~version:1 ~fp:"a" ~mv:"m1");
  Alcotest.(check bool) "duplicate not re-added" false
    (Q.add q ~version:1 ~fp:"a" ~mv:"m1");
  Alcotest.(check bool) "second mv same fp" true
    (Q.add q ~version:1 ~fp:"a" ~mv:"m2");
  Alcotest.(check (list string)) "blocked lists both" [ "m1"; "m2" ]
    (List.sort compare (Q.blocked q ~versions ~fp:"a"));
  Alcotest.(check bool) "is_blocked" true
    (Q.is_blocked q ~versions ~fp:"a" ~mv:"m2");
  Alcotest.(check int) "pairs held" 2 (Q.entries q);
  (* unrelated DML bumps the global epoch, not the definition version:
     the observation must stand *)
  Alcotest.(check (list string)) "unchanged version stays blocked"
    [ "m1"; "m2" ]
    (List.sort compare (Q.blocked q ~versions ~fp:"a"));
  (* refresh / re-create moves the version: expired on lookup *)
  Alcotest.(check (list string)) "version move expires" []
    (Q.blocked q ~versions:[ ("m1", 2); ("m2", 2) ] ~fp:"a");
  Alcotest.(check int) "expired entry dropped" 0 (Q.length q);
  (* a table absent from the lookup (stale or dropped right now) is
     retained but not reported; its re-created incarnation carries a new
     version and must not inherit the old observation *)
  ignore (Q.add q ~version:3 ~fp:"b" ~mv:"mm");
  Alcotest.(check (list string)) "absent table not reported" []
    (Q.blocked q ~versions:[] ~fp:"b");
  Alcotest.(check int) "absent pair retained" 1 (Q.entries q);
  Alcotest.(check bool) "same incarnation still blocked" true
    (Q.is_blocked q ~versions:[ ("mm", 3) ] ~fp:"b" ~mv:"mm");
  Alcotest.(check bool) "re-created incarnation not blocked" false
    (Q.is_blocked q ~versions:[ ("mm", 9) ] ~fp:"b" ~mv:"mm");
  (* a newer failure supersedes the same table's older pair *)
  Q.clear q;
  ignore (Q.add q ~version:1 ~fp:"c" ~mv:"k");
  Alcotest.(check bool) "newer version supersedes" true
    (Q.add q ~version:2 ~fp:"c" ~mv:"k");
  Alcotest.(check int) "superseded, not accumulated" 1 (Q.entries q);
  Alcotest.(check bool) "blocked at the new version" true
    (Q.is_blocked q ~versions:[ ("k", 2) ] ~fp:"c" ~mv:"k");
  (* LRU bound on fingerprints *)
  Q.clear q;
  let vm = [ ("m", 5) ] in
  ignore (Q.add q ~version:5 ~fp:"x" ~mv:"m");
  ignore (Q.add q ~version:5 ~fp:"y" ~mv:"m");
  ignore (Q.blocked q ~versions:vm ~fp:"x");
  ignore (Q.add q ~version:5 ~fp:"z" ~mv:"m");
  Alcotest.(check int) "capacity bound" 2 (Q.length q);
  Alcotest.(check bool) "LRU victim evicted" false
    (Q.is_blocked q ~versions:vm ~fp:"y" ~mv:"m");
  Alcotest.(check bool) "recently used survives" true
    (Q.is_blocked q ~versions:vm ~fp:"x" ~mv:"m");
  Q.clear q;
  Alcotest.(check int) "clear" 0 (Q.entries q)

(* ---------------- injection matrix: fallback at every stage ------------- *)

(* Arm each pipeline point in turn; the query must answer identically to a
   rewrite-off session with zero uncaught exceptions. When the fault
   actually fired (the point reports disarmed afterwards) the plan must
   have fallen back and the error must be counted. *)
let test_injection_matrix () =
  with_clean_faults @@ fun () ->
  List.iter
    (fun (point, summary, mv, q) ->
      let name = F.point_name point in
      let sn, plain, both = grouped_pair ~summary () in
      (* sanity: the query rewrites when healthy *)
      let _, steps = run sn q in
      Alcotest.(check bool) (name ^ ": rewrites when healthy") true
        (steps <> []);
      (* new epoch so the cached healthy plan cannot be served *)
      both "INSERT INTO t VALUES (4, 2);";
      let st0 = Sess.stats sn in
      F.arm point ~after:1;
      let via, steps = run sn q in
      let fired = not (F.armed point) in
      Alcotest.(check bool) (name ^ ": fault consumed") true fired;
      Alcotest.(check bool) (name ^ ": fallback to base plan") true
        (steps = []);
      let direct, _ = run plain q in
      Alcotest.(check bool) (name ^ ": result equals rewrite-off") true
        (R.bag_equal_approx via direct);
      let st1 = Sess.stats sn in
      Alcotest.(check bool) (name ^ ": error counted") true
        (st1.P.Stats.rw_errors > st0.P.Stats.rw_errors);
      Alcotest.(check bool) (name ^ ": fallback counted") true
        (st1.P.Stats.fallbacks > st0.P.Stats.fallbacks);
      Alcotest.(check bool) (name ^ ": candidate quarantined") true
        (st1.P.Stats.quarantined > st0.P.Stats.quarantined);
      (* repeat query: no fault armed any more, still served correctly *)
      check_equal (name ^ ": repeat query") sn plain q;
      (* unrelated DML bumps the epoch but not the table's definition
         version: the quarantine observation must stand *)
      both "INSERT INTO t VALUES (5, 1);";
      let _, steps = run sn q in
      Alcotest.(check bool) (name ^ ": quarantine survives unrelated DML")
        true (steps = []);
      check_equal (name ^ ": under quarantine") sn plain q;
      (* REFRESH moves the definition version: the observation is void and
         rewriting comes back *)
      both (Printf.sprintf "REFRESH SUMMARY TABLE %s;" mv);
      let _, steps = run sn q in
      Alcotest.(check bool) (name ^ ": rewrite restored after REFRESH")
        true (steps <> []);
      check_equal (name ^ ": after restore") sn plain q)
    [
      ( F.Navigate,
        default_summary,
        "m",
        "SELECT g, SUM(v) AS s FROM t GROUP BY g" );
      (F.Match, default_summary, "m", "SELECT g, SUM(v) AS s FROM t GROUP BY g");
      ( F.Compensate,
        default_summary,
        "m",
        "SELECT g, COUNT(*) AS c FROM t GROUP BY g" );
      (* expression translation runs when a select-level predicate is
         compensated through a finer summary and the query regroups it;
         duplicate (g, v) rows so the summary is genuinely smaller and the
         rewrite estimated cheaper *)
      ( F.Translate,
        Printf.sprintf
          "INSERT INTO t VALUES %s; \
           CREATE SUMMARY TABLE mf AS SELECT g, v, SUM(v) AS s, COUNT(*) AS \
           c FROM t GROUP BY g, v;"
          (String.concat ", "
             (List.concat
                (List.init 10 (fun _ ->
                     [ "(1, 10)"; "(1, 20)"; "(2, 5)"; "(3, 8)" ])))),
        "mf",
        "SELECT g, SUM(v) AS s FROM t WHERE v > 6 GROUP BY g" );
    ]

(* the quarantine is keyed to the table's definition version: DROP +
   re-CREATE of the same name is a new incarnation and must not inherit
   (resurrect) the observation recorded against the old one *)
let test_quarantine_not_resurrected_by_recreate () =
  with_clean_faults @@ fun () ->
  let sn, plain, both = grouped_pair ~verify:Sess.Always () in
  let q = "SELECT g, SUM(v) AS s FROM t GROUP BY g" in
  F.arm F.Corrupt ~after:1;
  ignore (run sn q);
  Alcotest.(check bool) "corruption fired" false (F.armed F.Corrupt);
  let _, steps = run sn q in
  Alcotest.(check bool) "quarantined after mismatch" true (steps = []);
  (* unrelated DML: the epoch moves, the definition version does not *)
  both "INSERT INTO t VALUES (7, 3);";
  let _, steps = run sn q in
  Alcotest.(check bool) "quarantine survives unrelated DML" true (steps = []);
  check_equal "under quarantine" sn plain q;
  (* the re-created table carries a new definition version: it rewrites,
     and verification (still Always) confirms the result *)
  both ("DROP SUMMARY TABLE m; " ^ default_summary);
  let _, steps = run sn q in
  Alcotest.(check bool) "re-created table rewrites" true (steps <> []);
  check_equal "after re-create" sn plain q;
  Alcotest.(check int) "no further mismatch" 1
    (Sess.stats sn).P.Stats.verify_mismatches

(* a failure in one candidate must not take down the others *)
let test_other_ast_still_tried () =
  with_clean_faults @@ fun () ->
  let sn = Sess.create () in
  let plain = Sess.create ~rewrite:false () in
  let both sql =
    script sn sql;
    script plain sql
  in
  both
    "CREATE TABLE t (g INT NOT NULL, v INT NOT NULL); \
     INSERT INTO t VALUES (1, 10), (1, 20), (2, 5); \
     CREATE SUMMARY TABLE m1 AS SELECT g, SUM(v) AS s, COUNT(*) AS c FROM t \
     GROUP BY g; \
     CREATE SUMMARY TABLE m2 AS SELECT g, SUM(v) AS s, COUNT(*) AS c FROM t \
     GROUP BY g;";
  let q = "SELECT g, SUM(v) AS s FROM t GROUP BY g" in
  (* the first match-function call (candidate m1) dies; m2 must serve *)
  F.arm F.Match ~after:1;
  let via, steps = run sn q in
  Alcotest.(check bool) "fault fired" false (F.armed F.Match);
  Alcotest.(check bool) "still rewritten via the surviving AST" true
    (steps <> []);
  List.iter
    (fun (s : Astmatch.Rewrite.step) ->
      Alcotest.(check string) "routed around the failed candidate" "m2"
        s.used_mv)
    steps;
  let direct, _ = run plain q in
  Alcotest.(check bool) "result correct" true (R.bag_equal_approx via direct);
  let st = Sess.stats sn in
  Alcotest.(check bool) "error contained and counted" true
    (st.P.Stats.rw_errors >= 1);
  Alcotest.(check int) "not a fallback: another AST answered" 0
    st.P.Stats.fallbacks

(* ---------------- runtime verification ---------------- *)

let test_verify_catches_corruption () =
  with_clean_faults @@ fun () ->
  let sn, plain, both = grouped_pair ~verify:Sess.Always () in
  let q = "SELECT g, SUM(v) AS s FROM t GROUP BY g" in
  F.arm F.Corrupt ~after:1;
  let via, steps = run sn q in
  Alcotest.(check bool) "corruption fired" false (F.armed F.Corrupt);
  Alcotest.(check bool) "corrupted rewrite not served" true (steps = []);
  let direct, _ = run plain q in
  Alcotest.(check bool) "served result is correct" true
    (R.bag_equal_approx via direct);
  let st = Sess.stats sn in
  Alcotest.(check int) "mismatch recorded" 1 st.P.Stats.verify_mismatches;
  Alcotest.(check bool) "summary table quarantined" true
    (st.P.Stats.quarantined >= 1);
  (* repeat at the same epoch: the discredited candidate is skipped *)
  let via, steps = run sn q in
  Alcotest.(check bool) "repeat skips the quarantined candidate" true
    (steps = []);
  Alcotest.(check bool) "repeat result correct" true
    (R.bag_equal_approx via direct);
  let st = Sess.stats sn in
  Alcotest.(check bool) "quarantine skip counted" true
    (st.P.Stats.quarantine_skips >= 1);
  Alcotest.(check int) "no further mismatch" 1 st.P.Stats.verify_mismatches;
  (* REFRESH moves the epoch: quarantine expires, rewriting comes back and
     now verifies cleanly *)
  both "REFRESH SUMMARY TABLE m;";
  let via, steps = run sn q in
  Alcotest.(check bool) "rewrite restored after REFRESH" true (steps <> []);
  Alcotest.(check bool) "restored result verified correct" true
    (R.bag_equal_approx via direct);
  let st = Sess.stats sn in
  Alcotest.(check int) "still exactly one mismatch ever" 1
    st.P.Stats.verify_mismatches

let test_verify_sampling_deterministic () =
  with_clean_faults @@ fun () ->
  let sn, _, _ = grouped_pair ~verify:(Sess.Sampled 0.25) () in
  let q = "SELECT g, SUM(v) AS s FROM t GROUP BY g" in
  for _ = 1 to 8 do
    ignore (run sn q)
  done;
  Alcotest.(check int) "exactly every 4th rewritten query verified" 2
    (Sess.stats sn).P.Stats.verify_runs;
  Alcotest.(check int) "no mismatches" 0
    (Sess.stats sn).P.Stats.verify_mismatches

let test_verify_oracle () =
  with_clean_faults @@ fun () ->
  let sn = Sess.create ~verify:Sess.Always ~verify_oracle:true () in
  script sn
    "CREATE TABLE t (g INT NOT NULL, v INT NOT NULL); \
     INSERT INTO t VALUES (1, 10), (1, 20), (2, 5); \
     CREATE SUMMARY TABLE m AS SELECT g, SUM(v) AS s, COUNT(*) AS c FROM t \
     GROUP BY g;";
  let _, steps = run sn "SELECT g, COUNT(*) AS c FROM t GROUP BY g" in
  Alcotest.(check bool) "rewritten" true (steps <> []);
  let st = Sess.stats sn in
  Alcotest.(check int) "verified against the reference evaluator" 1
    st.P.Stats.verify_runs;
  Alcotest.(check int) "rewrite agrees with the oracle" 0
    st.P.Stats.verify_mismatches

(* ---------------- planner never raises ---------------- *)

let test_planner_sandbox () =
  with_clean_faults @@ fun () ->
  (* a fault in the planning path outside any candidate must also degrade:
     plan on a planner whose candidate list raises via the navigator even
     with no fingerprint cached *)
  let sn, plain, _ = grouped_pair () in
  let q = "SELECT g, SUM(v) AS s FROM t GROUP BY g" in
  (* all points armed at once — full fault injection; still no escape *)
  F.arm F.Navigate ~after:1;
  F.arm F.Match ~after:1;
  F.arm F.Compensate ~after:1;
  F.arm F.Translate ~after:1;
  check_equal "full injection" sn plain q;
  F.disarm_all ();
  check_equal "after disarm" sn plain q

(* ---------------- randomized workload under injection ---------------- *)

let test_randomized_workload () =
  with_clean_faults @@ fun () ->
  let seed = Option.value (F.seed_of_env ()) ~default:20260806 in
  let rng = Random.State.make [| seed |] in
  (* verify:Always so that every randomly injected result corruption is
     caught in the act — under sampling a corruption may (by design) be
     served unverified, which is the cost/coverage trade-off, not a bug *)
  let sn = Sess.create ~verify:Sess.Always () in
  let plain = Sess.create ~rewrite:false () in
  let both sql =
    script sn sql;
    script plain sql
  in
  both
    "CREATE TABLE t (g INT NOT NULL, v INT NOT NULL); \
     INSERT INTO t VALUES (1, 10), (1, 20), (2, 5), (3, 8); \
     CREATE SUMMARY TABLE m1 AS SELECT g, SUM(v) AS s, COUNT(*) AS c FROM t \
     GROUP BY g; \
     CREATE SUMMARY TABLE m2 AS SELECT g, SUM(v) AS s FROM t GROUP BY g \
     HAVING SUM(v) > 10;";
  let queries =
    [|
      "SELECT g, SUM(v) AS s FROM t GROUP BY g";
      "SELECT g, COUNT(*) AS c FROM t GROUP BY g";
      "SELECT g, SUM(v) AS s FROM t GROUP BY g HAVING SUM(v) > 10";
      "SELECT DISTINCT g FROM t";
      "SELECT g, v FROM t";
    |]
  in
  let points =
    [| F.Navigate; F.Match; F.Compensate; F.Translate; F.Corrupt;
       F.Corrupt_plan |]
  in
  for step = 1 to 120 do
    (match Random.State.int rng 10 with
    | 0 ->
        both
          (Printf.sprintf "INSERT INTO t VALUES (%d, %d);"
             (1 + Random.State.int rng 5)
             (Random.State.int rng 50))
    | 1 ->
        (* arm a random point a few hits out; whether and where it fires
           depends on the query mix — the invariant must hold regardless *)
        F.arm
          points.(Random.State.int rng (Array.length points))
          ~after:(1 + Random.State.int rng 3)
    | _ -> ());
    let q = queries.(Random.State.int rng (Array.length queries)) in
    let via, _ = run sn q in
    let direct, _ = run plain q in
    Alcotest.(check bool)
      (Printf.sprintf "step %d (%s)" step q)
      true
      (R.bag_equal_approx via direct)
  done;
  (* every verification mismatch (injected corruption caught in the act)
     must have quarantined the candidate that produced it *)
  let st = Sess.stats sn in
  Alcotest.(check bool) "mismatches all quarantined" true
    (st.P.Stats.verify_mismatches <= st.P.Stats.quarantined)

(* ---------------- error-surface satellites ---------------- *)

let test_division_by_zero_session_error () =
  with_clean_faults @@ fun () ->
  let sn = Sess.create () in
  script sn
    "CREATE TABLE t (g INT NOT NULL, v INT NOT NULL); \
     INSERT INTO t VALUES (1, 10);";
  Alcotest.check_raises "SELECT 1/0"
    (Sess.Session_error "division by zero in SELECT") (fun () ->
      ignore (run sn "SELECT v / 0 AS bad FROM t"));
  Alcotest.check_raises "modulo zero"
    (Sess.Session_error "division by zero in SELECT") (fun () ->
      ignore (run sn "SELECT v % 0 AS bad FROM t"));
  Alcotest.check_raises "INSERT 1/0"
    (Sess.Session_error "division by zero in INSERT") (fun () ->
      ignore (Sess.exec_sql sn "INSERT INTO t VALUES (2, 1 / 0);"));
  (* the session survives: the table is intact and still queryable *)
  let rel, _ = run sn "SELECT g, v FROM t" in
  Alcotest.(check int) "failed INSERT left no row" 1 (R.cardinality rel)

let test_reference_errors_are_classified () =
  let db = Helpers.tiny_db () in
  let g =
    Helpers.build (Engine.Db.catalog db)
      "SELECT label, (SELECT v FROM fact) AS sv FROM dims"
  in
  (match Engine.Reference.run db g with
  | _ -> Alcotest.fail "expected Reference_error"
  | exception Engine.Reference.Reference_error m ->
      Alcotest.(check bool) "names the cardinality" true
        (String.length m > 0
        && String.starts_with ~prefix:"scalar subquery" m)
  | exception Failure _ -> Alcotest.fail "bare Failure escaped the oracle")

(* ---------------- health report ---------------- *)

let test_health_report () =
  with_clean_faults @@ fun () ->
  let sn, _, _ = grouped_pair ~verify:Sess.Always () in
  F.arm F.Corrupt ~after:1;
  ignore (run sn "SELECT g, SUM(v) AS s FROM t GROUP BY g");
  let h = Sess.health sn in
  let contains needle =
    let nh = String.length h and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub h i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "health mentions %S" needle)
        true (contains needle))
    [ "fallbacks"; "quarantined"; "verification" ]

let suite =
  [
    Alcotest.test_case "fault countdown" `Quick test_fault_countdown;
    Alcotest.test_case "fault hit raises" `Quick test_fault_hit_raises;
    Alcotest.test_case "arm_spec parsing" `Quick test_arm_spec;
    Alcotest.test_case "corrupt_value" `Quick test_corrupt_value;
    Alcotest.test_case "sandbox classification" `Quick test_sandbox_classify;
    Alcotest.test_case "quarantine unit" `Quick test_quarantine_unit;
    Alcotest.test_case "injection matrix" `Quick test_injection_matrix;
    Alcotest.test_case "quarantine not resurrected by re-create" `Quick
      test_quarantine_not_resurrected_by_recreate;
    Alcotest.test_case "other AST still tried" `Quick
      test_other_ast_still_tried;
    Alcotest.test_case "verify catches corruption" `Quick
      test_verify_catches_corruption;
    Alcotest.test_case "verify sampling deterministic" `Quick
      test_verify_sampling_deterministic;
    Alcotest.test_case "verify against oracle" `Quick test_verify_oracle;
    Alcotest.test_case "full injection never escapes" `Quick
      test_planner_sandbox;
    Alcotest.test_case "randomized workload under injection" `Quick
      test_randomized_workload;
    Alcotest.test_case "division by zero surfaced" `Quick
      test_division_by_zero_session_error;
    Alcotest.test_case "reference errors classified" `Quick
      test_reference_errors_are_classified;
    Alcotest.test_case "health report" `Quick test_health_report;
  ]
