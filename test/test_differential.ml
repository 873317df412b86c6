(* Differential testing: the vectorized executor against the naive
   reference evaluator over a grammar of random queries on tiny data —
   joins, filters, grouping sets, DISTINCT and DISTINCT aggregates, CASE
   items and predicates, UNION and UNION ALL. Any divergence is an engine
   bug. The generator is QCheck-driven (set QCHECK_SEED to reproduce a
   failure); the count is bounded so tier-1 stays fast.

   Both engines run the graph the builder made, so they cannot see a
   builder bug; DISTINCT and UNION (built as key-only GROUP BYs) are also
   checked against [Relation.distinct] of the query without them. *)

module R = Data.Relation
open Helpers

let db = lazy (tiny_db ())

(* -------- query grammar over the tiny schema -------- *)

let dims = [| "grp"; "dim"; "v" |]
let aggs = [| "COUNT(*)"; "COUNT(v)"; "SUM(v)"; "MIN(v)"; "MAX(v)"; "AVG(v)";
              "COUNT(DISTINCT v)"; "SUM(DISTINCT v)";
              (* values that repeat across groups: the DISTINCT seen-set is
                 per group *)
              "COUNT(DISTINCT grp)"; "SUM(DISTINCT k % 3)" |]
let filters =
  [| "v > 6"; "v IS NOT NULL"; "grp = 'x'"; "k % 2 = 0"; "v BETWEEN 5 AND 15";
     (* CASE predicates; the second guards a division by zero at k = 3 *)
     "CASE WHEN v IS NULL THEN k > 3 WHEN grp = 'x' THEN v > 12 ELSE k < 6 END";
     "CASE WHEN k <> 3 THEN 12 / (k - 3) ELSE 0 END > 2" |]

(* a CASE select item: bare in a plain select, aggregated otherwise *)
let case_item = "CASE WHEN v > 6 THEN v WHEN v IS NULL THEN -1 ELSE 0 END"

type qspec = {
  qs_join : bool;           (* join fact with dims on dim = id *)
  qs_dims : int list;
  qs_aggs : int list;       (* empty = plain select *)
  qs_filters : int list;
  qs_distinct : bool;
  qs_sets : bool;           (* grouping sets over the dims *)
  qs_keys_out : bool;       (* a grouped select lists its keys *)
  qs_case : bool;           (* add [case_item] to the select list *)
  qs_union : (bool * qspec) option;
      (* UNION [ALL] with a second select of the same list *)
}

let rec sql_of q =
  let dim_exprs = List.map (fun i -> dims.(i)) q.qs_dims in
  let select_dims =
    (* without its keys a grouped select can repeat rows for DISTINCT *)
    if q.qs_aggs <> [] && not q.qs_keys_out then []
    else List.mapi (fun j e -> Printf.sprintf "%s AS d%d" e j) dim_exprs
  in
  let select_aggs =
    List.mapi (fun j i -> Printf.sprintf "%s AS a%d" aggs.(i) j) q.qs_aggs
  in
  let select_case =
    if not q.qs_case then []
    else if q.qs_aggs = [] then [ case_item ^ " AS c" ]
    else [ Printf.sprintf "SUM(%s) AS c" case_item ]
  in
  let items =
    match select_dims @ select_aggs @ select_case with [] -> [ "k" ] | l -> l
  in
  let from = if q.qs_join then "fact, dims" else "fact" in
  let joinp = if q.qs_join then [ "dim = id" ] else [] in
  let where =
    match joinp @ List.map (fun i -> filters.(i)) q.qs_filters with
    | [] -> ""
    | ps -> " WHERE " ^ String.concat " AND " ps
  in
  let group =
    if q.qs_aggs = [] || dim_exprs = [] then ""
    else if q.qs_sets && List.length dim_exprs >= 2 then
      Printf.sprintf " GROUP BY GROUPING SETS((%s), (%s), ())"
        (String.concat ", " dim_exprs)
        (List.hd dim_exprs)
    else " GROUP BY " ^ String.concat ", " dim_exprs
  in
  let distinct = if q.qs_distinct then "DISTINCT " else "" in
  let union =
    match q.qs_union with
    | None -> ""
    | Some (all, q2) -> (if all then " UNION ALL " else " UNION ") ^ sql_of q2
  in
  Printf.sprintf "SELECT %s%s FROM %s%s%s%s" distinct (String.concat ", " items)
    from where group union

let gen_subset arr n =
  QCheck.Gen.(
    list_size (int_range 0 n) (int_bound (Array.length arr - 1))
    >|= List.sort_uniq compare)

let gen_spec =
  QCheck.Gen.(
    (* the parts a UNION branch may vary without changing the select list *)
    let gen_branch =
      let* qs_join = bool in
      let* qs_filters = gen_subset filters 2 in
      let* qs_distinct = bool in
      return (qs_join, qs_filters, qs_distinct)
    in
    let* qs_join, qs_filters, qs_distinct = gen_branch in
    let* qs_dims = gen_subset dims 2 in
    let* has_aggs = bool in
    let* qs_aggs =
      if has_aggs then
        list_size (int_range 1 3) (int_bound (Array.length aggs - 1))
        >|= List.sort_uniq compare
      else return []
    in
    let* qs_sets = bool in
    let* qs_keys_out = bool in
    let* qs_case = bool in
    let q =
      { qs_join; qs_dims; qs_aggs; qs_filters; qs_distinct; qs_sets; qs_keys_out;
        qs_case; qs_union = None }
    in
    let* union = bool in
    if not union then return q
    else
      let* all = bool in
      let* qs_join, qs_filters, qs_distinct = gen_branch in
      return
        { q with qs_union = Some (all, { q with qs_join; qs_filters; qs_distinct }) })

let agree spec =
  let db = Lazy.force db in
  let sql = sql_of spec in
  let g = build (Engine.Db.catalog db) sql in
  let fast = Engine.Exec.run db g in
  let slow = Engine.Reference.run db g in
  if not (R.bag_equal_approx fast slow) then
    QCheck.Test.fail_reportf
      "vector and reference disagree on %s\nvector:\n%s\nreference:\n%s" sql
      (R.to_string fast) (R.to_string slow)
  else begin
    (* and the unparser must round-trip the graph *)
    let printed = Qgm.Unparse.to_sql g in
    let again =
      try Engine.Exec.run db (build (Engine.Db.catalog db) printed)
      with e ->
        QCheck.Test.fail_reportf "unparse of %s does not rebuild (%s): %s" sql
          (Printexc.to_string e) printed
    in
    if R.bag_equal_approx fast again then true
    else
      QCheck.Test.fail_reportf "unparse changes semantics of %s -> %s" sql
        printed
  end

let prop_engines_agree =
  QCheck.Test.make ~name:"vector engine matches reference" ~count:500
    (QCheck.make ~print:sql_of gen_spec)
    agree

(* SELECT DISTINCT q on the executor bag-equals the distinct rows of q on
   the reference, and a UNION b those of a UNION ALL b *)
let dedups_agree spec =
  let db = Lazy.force db in
  let exec sql = Engine.Exec.run db (build (Engine.Db.catalog db) sql) in
  let distinct_of sql = R.distinct (Engine.Reference.run db (build (Engine.Db.catalog db) sql)) in
  let check what sql ~oracle =
    let got = exec sql and want = distinct_of oracle in
    R.bag_equal_approx got want
    || QCheck.Test.fail_reportf "%s: %s\ngot:\n%s\nexpected:\n%s" what sql
         (R.to_string got) (R.to_string want)
  in
  let head = { spec with qs_union = None } in
  let branch = match spec.qs_union with Some (_, b) -> b | None -> head in
  check "DISTINCT" (sql_of { head with qs_distinct = true })
    ~oracle:(sql_of { head with qs_distinct = false })
  && check "UNION" (sql_of { spec with qs_union = Some (false, branch) })
       ~oracle:(sql_of { spec with qs_union = Some (true, branch) })

let prop_dedups_agree =
  QCheck.Test.make ~name:"DISTINCT and UNION match deduplicated reference" ~count:300
    (QCheck.make ~print:sql_of gen_spec)
    dedups_agree

(* a few hand-picked shapes the generator may under-sample *)
let fixed_cases =
  [
    "SELECT k FROM fact, dims WHERE dim = id AND v > 6";
    "SELECT grp, COUNT(*) AS c FROM fact GROUP BY grp";
    "SELECT COUNT(*) AS c FROM fact WHERE v > 1000";
    "SELECT DISTINCT grp, dim FROM fact";
    "SELECT region, SUM(v) AS s FROM fact, dims WHERE dim = id GROUP BY region";
    "SELECT grp, dim, COUNT(*) AS c FROM fact GROUP BY GROUPING SETS((grp, dim), (grp), ())";
    "SELECT k, (SELECT COUNT(*) FROM dims) AS n FROM fact";
    "SELECT grp, COUNT(*) AS c FROM fact GROUP BY grp HAVING COUNT(*) > 2";
    "SELECT dim, COUNT(DISTINCT grp) AS c, SUM(DISTINCT v) AS s FROM fact GROUP BY dim";
    "SELECT k, CASE WHEN v > 6 THEN 'hi' WHEN v IS NULL THEN 'none' ELSE 'lo' END AS c FROM fact";
    (* the guarded arms would divide by zero at k = 3 *)
    "SELECT k, CASE WHEN k = 3 THEN 0 ELSE 12 / (k - 3) END AS r FROM fact";
    "SELECT k FROM fact WHERE CASE WHEN k <> 3 THEN 12 / (k - 3) ELSE 0 END > 2";
    "SELECT grp, dim FROM fact WHERE v > 6 UNION ALL SELECT grp, dim FROM fact";
    "SELECT grp, dim FROM fact WHERE v > 6 UNION SELECT grp, id FROM fact, dims WHERE dim = id";
  ]

let check_agree name db g =
  let fast = Engine.Exec.run db g and slow = Engine.Reference.run db g in
  if not (R.bag_equal_approx fast slow) then
    Alcotest.failf "vector and reference disagree on %s\nvector:\n%s\nreference:\n%s"
      name (R.to_string fast) (R.to_string slow)

let test_fixed () =
  let db = Lazy.force db in
  List.iter (fun sql -> check_agree sql db (build (Engine.Db.catalog db) sql)) fixed_cases

(* -------- the oracle corpus: the suite's hand-picked workload queries -------- *)

(* Each decision-support query on [Test_decision_support]'s data (910 Trans
   rows under the three decision-support summaries), as built and as the
   plan cache routes it; each paper-figure query as built and rewritten
   over its AST at every site the navigator matches. *)
let corpus () =
  let sn = Lazy.force Test_decision_support.session in
  let db = Mvstore.Session.db sn and store = Mvstore.Session.store sn in
  let cat = Engine.Db.catalog db in
  let planner = Plancache.Planner.create () in
  let decision_support =
    List.concat_map
      (fun (q : Workload.Decision_support.query) ->
        let g = build cat q.dq_sql in
        let report =
          Plancache.Planner.plan planner ~cat ~epoch:(Mvstore.Store.epoch store)
            ~mvs:(Mvstore.Store.rewritable store) g
        in
        Alcotest.(check bool) (q.dq_name ^ " routed as expected") q.dq_expect_rewrite
          (report.Plancache.Planner.pr_steps <> []);
        [ (q.dq_name, db, g); (q.dq_name ^ " routed", db, report.pr_graph) ])
      Workload.Decision_support.queries
  in
  let paper =
    List.concat_map
      (fun (c : Workload.Paper_queries.case) ->
        let qg = build cat c.query and ag = build cat c.ast in
        let mv_name = c.ast_name in
        let db', mv_cols = with_mv ~mv_name db ag in
        let gs = rewritten_sites ~mv_name ~mv_cols db' ~qg ~ag in
        Alcotest.(check bool) (c.name ^ " rewritten as expected") c.expect_rewrite (gs <> []);
        (c.name, db, qg) :: List.map (fun g -> (c.name ^ " rewritten", db', g)) gs)
      Workload.Paper_queries.cases
  in
  decision_support @ paper

let test_corpus () = List.iter (fun (name, db, g) -> check_agree name db g) (corpus ())

let suite =
  [
    QCheck_alcotest.to_alcotest prop_engines_agree;
    QCheck_alcotest.to_alcotest prop_dedups_agree;
    Alcotest.test_case "fixed shapes" `Quick test_fixed;
    Alcotest.test_case "oracle corpus" `Quick test_corpus;
  ]
