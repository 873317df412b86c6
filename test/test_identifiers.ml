(* Identifier case: a table or column name means its declaration whatever
   case it is typed in. The decision-support workload (ten queries over
   their three summaries) and the paper-figure corpus are re-run with every
   identifier upper-cased and mixed-cased, summaries and queries alike.
   Each variant must build, take the same rewrite steps as the original,
   and answer the original's bag on the executor and on the reference
   oracle. *)

module R = Data.Relation
module Sess = Mvstore.Session
open Helpers

(* [sql] with every identifier re-cased by [f] (keywords and function
   names too, which are case-insensitive; string literals untouched) *)
let recase f sql =
  let b = Bytes.of_string sql in
  List.iter
    (fun (tok, pos) ->
      match tok with
      | Sqlsyn.Token.Ident s -> Bytes.blit_string (f s) 0 b pos (String.length s)
      | _ -> ())
    (Sqlsyn.Lexer.tokenize sql);
  Bytes.to_string b

let mixed =
  String.mapi (fun i c -> if i mod 2 = 0 then Char.uppercase_ascii c else Char.lowercase_ascii c)

let casings = [ ("upper", String.uppercase_ascii); ("mixed", mixed) ]

(* What routing decided, with summary names compared as the user may
   type them *)
let shape steps =
  List.map
    (fun (s : Astmatch.Rewrite.step) ->
      Printf.sprintf "%s at box %d, exact %b, proved %b"
        (String.lowercase_ascii s.used_mv) s.target s.exact (Prove.is_proved s.proved))
    steps

let check_shape what orig variant =
  Alcotest.(check (list string)) (what ^ ": same rewrite steps") (shape orig) (shape variant)

let check_answer what expected db g =
  List.iter
    (fun (engine, run) ->
      let got = run db g in
      if not (R.bag_equal_approx expected got) then
        Alcotest.failf "%s on %s: answer differs\nexpected:\n%s\ngot:\n%s" what
          engine (R.to_string expected) (R.to_string got))
    [ ("Exec.run", fun db g -> Engine.Exec.run db g); ("Reference.run", Engine.Reference.run) ]

(* -------- the decision-support workload -------- *)

(* A session over [Test_decision_support]'s data, with no summary *)
let fresh_session () =
  Sess.of_tables (Workload.Star_schema.catalog ())
    (Workload.Star_schema.generate
       { Workload.Star_schema.default_params with n_custs = 4; trans_per_acct_year = 40 })

(* ... under the three summaries, each name and definition re-cased by [f] *)
let recased_session f =
  let sn = fresh_session () in
  List.iter
    (fun (name, sql) ->
      ignore
        (Sess.exec_sql sn
           (recase f (Printf.sprintf "CREATE SUMMARY TABLE %s AS %s" name sql))))
    Workload.Decision_support.summary_tables;
  sn

let plan sn g =
  let db = Sess.db sn and store = Sess.store sn in
  Plancache.Planner.plan (Sess.planner sn) ~cat:(Engine.Db.catalog db)
    ~epoch:(Mvstore.Store.epoch store) ~mvs:(Mvstore.Store.rewritable store) g

let test_decision_support (label, f) () =
  let orig = Lazy.force Test_decision_support.session in
  let sn = recased_session f in
  Alcotest.(check int) (label ^ ": three summaries") 3
    (List.length (Mvstore.Store.entries (Sess.store sn)));
  List.iter
    (fun (q : Workload.Decision_support.query) ->
      let what = Printf.sprintf "%s %s" label q.dq_name in
      let db0 = Sess.db orig and db = Sess.db sn in
      let g0 = build (Engine.Db.catalog db0) q.dq_sql in
      let g = build (Engine.Db.catalog db) (recase f q.dq_sql) in
      let r0 = plan orig g0 and r = plan sn g in
      check_shape what r0.Plancache.Planner.pr_steps r.Plancache.Planner.pr_steps;
      let expected = Engine.Exec.run db0 g0 in
      check_answer what expected db g;
      check_answer (what ^ " routed") expected db r.pr_graph)
    Workload.Decision_support.queries

(* -------- the paper-figure corpus -------- *)

let test_paper (label, f) () =
  let db = Lazy.force Test_integration.star_db in
  let cat = Engine.Db.catalog db in
  List.iter
    (fun (c : Workload.Paper_queries.case) ->
      let what = Printf.sprintf "%s %s" label c.name in
      let best ~mv_name query ast =
        let qg = build cat query and ag = build cat ast in
        let db', _ = with_mv ~mv_name db ag in
        let mv = { Astmatch.Rewrite.mv_name; mv_graph = ag; mv_version = 0 } in
        (qg, db', Astmatch.Rewrite.best ~cat:(Engine.Db.catalog db') qg [ mv ])
      in
      let qg0, _, best0 = best ~mv_name:c.ast_name c.query c.ast in
      let qg, db', best = best ~mv_name:(f c.ast_name) (recase f c.query) (recase f c.ast) in
      let steps = function Some (_, s) -> s | None -> [] in
      check_shape what (steps best0) (steps best);
      let expected = Engine.Exec.run db qg0 in
      check_answer what expected db qg;
      Option.iter (fun (g, _) -> check_answer (what ^ " rewritten") expected db' g) best)
    Workload.Paper_queries.cases

(* -------- the two reproductions -------- *)

let rows = function
  | Sess.Table rel -> rel
  | _ -> Alcotest.fail "expected a result table"

(* A GROUP BY key spelled differently from the SELECT item it groups. *)
let test_group_by_spelling () =
  let sn = fresh_session () in
  let sql c = Printf.sprintf "SELECT flid, COUNT(*) AS c FROM Trans WHERE flid < 3 GROUP BY %s" c in
  let run c = rows (List.hd (Sess.exec_sql sn (sql c))) in
  let mixed = run "FLID" and same = run "flid" in
  Alcotest.(check bool) "some group" true (R.cardinality same > 0);
  Alcotest.(check bool) "same answer as one spelling" true (R.bag_equal_approx same mixed);
  Alcotest.(check (list string)) "headers as typed" [ "flid"; "c" ]
    (Array.to_list (R.columns mixed))

(* A summary defined in upper case answers the query in lower case. *)
let test_upper_summary_answers () =
  let sn = fresh_session () in
  ignore
    (Sess.exec_sql sn
       "CREATE SUMMARY TABLE st_g AS SELECT FLID, COUNT(*) AS C, SUM(QTY) AS S \
        FROM TRANS GROUP BY FLID");
  let q =
    Sqlsyn.Parser.parse_query
      "SELECT flid, SUM(qty) AS s FROM Trans WHERE flid < 3 GROUP BY flid"
  in
  let via, steps = Sess.run_query sn q in
  Alcotest.(check (list string)) "answered from st_g" [ "st_g" ]
    (List.map (fun (s : Astmatch.Rewrite.step) -> s.used_mv) steps);
  Alcotest.(check bool) "proved" true
    (Prove.is_proved (Astmatch.Rewrite.steps_proof steps));
  let direct, _ = Sess.run_query ~config:(base_only sn) sn q in
  Alcotest.(check bool) "same answer as the base tables" true (R.bag_equal_approx direct via)

(* A CREATE run whose second name repeats the first in another case: the
   first installs, the second is refused as a clash. *)
let test_run_name_case_clash () =
  let sn = fresh_session () in
  let create name by =
    Printf.sprintf "CREATE SUMMARY TABLE %s AS SELECT %s, COUNT(*) AS c FROM Trans GROUP BY %s;"
      name by by
  in
  (match Sess.exec_sql sn (create "st_a" "flid, fpgid" ^ create "ST_A" "flid") with
  | exception Sess.Session_error m ->
      Alcotest.(check bool) "names the clash" true (contains m "ST_A already exists")
  | _ -> Alcotest.fail "the clash must surface");
  Alcotest.(check (list string)) "the first definition stands" [ "st_a" ]
    (List.map (fun (e : Mvstore.Store.entry) -> e.e_name) (Mvstore.Store.entries (Sess.store sn)))

let suite =
  List.concat_map
    (fun ((label, _) as casing) ->
      [
        Alcotest.test_case (label ^ "-case decision support") `Quick
          (test_decision_support casing);
        Alcotest.test_case (label ^ "-case paper figures") `Quick (test_paper casing);
      ])
    casings
  @ [
      Alcotest.test_case "GROUP BY key in another case" `Quick test_group_by_spelling;
      Alcotest.test_case "upper-case summary answers lower-case query" `Quick
        test_upper_summary_answers;
      Alcotest.test_case "CREATE run: name clash in another case" `Quick
        test_run_name_case_clash;
    ]
