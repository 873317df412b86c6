(* Static IR validation (Lint.Validate) and summary-table lint
   (Lint.Advisor).

   The validator tests hand-build ill-formed graphs with the Graph API and
   check each one is caught with the right V-code; the advisor tests drive
   whole sessions through SQL and look for L-codes on the definitions.
   The tests at the bottom cover the planner's one validation site, the
   final plan: it runs once per rewritten plan-cache miss and never on a
   hit, and with the Corrupt_plan fault armed and runtime verification
   OFF the broken plan is rejected *statically* — typed invalid-ir
   rejection in EXPLAIN REWRITE VERBOSE, summary quarantined, correct
   answer served from the base plan. *)

module B = Qgm.Box
module E = Qgm.Expr
module G = Qgm.Graph
module V = Data.Value
module Val = Lint.Validate
module Sess = Mvstore.Session
module F = Guard.Fault

let parse = Sqlsyn.Parser.parse_query

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ---------------- graph-building helpers ---------------- *)

let base_t g =
  G.add_box g (B.Base { B.bt_table = "t"; bt_cols = [ "g"; "v" ] })

let select ~quants ?(preds = []) ~outs ?(distinct = false) g =
  G.add_box g
    (B.Select
       {
         B.sel_quants = quants;
         sel_preds = preds;
         sel_outs = outs;
         sel_distinct = distinct;
       })

let qcol q col = E.Col { B.quant = q.B.q_id; col }

(* a well-formed SELECT g, v FROM t, used as the starting point that each
   test then breaks in exactly one way *)
let valid_graph () =
  let g, base = base_t G.empty in
  let g, q = G.fresh_quant g base B.Foreach in
  let g, root =
    select ~quants:[ q ] ~outs:[ ("g", qcol q "g"); ("v", qcol q "v") ] g
  in
  (G.set_root g root, base, q)

let codes vs = List.sort_uniq compare (List.map (fun v -> v.Val.v_code) vs)

let expect_code ?cat what code g =
  let cs = codes (Val.check ?cat g) in
  Alcotest.(check bool)
    (Printf.sprintf "%s flags %s (got %s)" what code (String.concat "," cs))
    true (List.mem code cs)

let test_valid_graph_clean () =
  let g, _, _ = valid_graph () in
  Alcotest.(check (list string)) "no violations" [] (codes (Val.check g))

let test_v101_root_missing () =
  let g, _ = base_t G.empty in
  expect_code "dangling root" "V101" (G.set_root g 424242)

let test_v102_cycle () =
  (* a SELECT box made to consume itself *)
  let g, base = base_t G.empty in
  let g, q = G.fresh_quant g base B.Foreach in
  let g, root = select ~quants:[ q ] ~outs:[ ("g", qcol q "g") ] g in
  let self = { B.q_id = 77; q_box = root; q_kind = B.Foreach } in
  let g =
    G.update_box g root
      (B.Select
         {
           B.sel_quants = [ q; self ];
           sel_preds = [];
           sel_outs = [ ("g", qcol q "g") ];
           sel_distinct = false;
         })
  in
  expect_code "self-loop" "V102" (G.set_root g root)

let test_v103_dead_box () =
  let g, _, q = valid_graph () in
  let dead = { q with B.q_box = 424242 } in
  let root = G.root g in
  let g =
    G.update_box g root
      (B.Select
         {
           B.sel_quants = [ dead ];
           sel_preds = [];
           sel_outs = [ ("g", qcol dead "g") ];
           sel_distinct = false;
         })
  in
  expect_code "quantifier to dead box" "V103" g

let test_v104_foreign_quant () =
  let g, _, q = valid_graph () in
  let ghost = E.Col { B.quant = 999; col = "g" } in
  let root = G.root g in
  let g =
    G.update_box g root
      (B.Select
         {
           B.sel_quants = [ q ];
           sel_preds = [];
           sel_outs = [ ("g", ghost) ];
           sel_distinct = false;
         })
  in
  expect_code "undeclared quantifier" "V104" g

let test_v105_unknown_column () =
  let g, _, q = valid_graph () in
  let root = G.root g in
  let g =
    G.update_box g root
      (B.Select
         {
           B.sel_quants = [ q ];
           sel_preds = [ E.Binop ("<", qcol q "ghost", E.Const (V.Int 3)) ];
           sel_outs = [ ("g", qcol q "g") ];
           sel_distinct = false;
         })
  in
  expect_code "column not produced by child" "V105" g

let test_v106_duplicate_outputs () =
  let g, _, q = valid_graph () in
  let root = G.root g in
  let g =
    G.update_box g root
      (B.Select
         {
           B.sel_quants = [ q ];
           sel_preds = [];
           sel_outs = [ ("x", qcol q "g"); ("x", qcol q "v") ];
           sel_distinct = false;
         })
  in
  expect_code "duplicate output names" "V106" g

let test_v107_agg_in_select () =
  let g, _, q = valid_graph () in
  let root = G.root g in
  let sum = { E.fn = E.Sum; distinct = false } in
  let g =
    G.update_box g root
      (B.Select
       {
           B.sel_quants = [ q ];
           sel_preds = [];
           sel_outs = [ ("s", E.Agg (sum, Some (qcol q "v"))) ];
           sel_distinct = false;
         })
  in
  expect_code "aggregate in SELECT box" "V107" g

let group_over ?(grouping = B.Simple [ "g" ]) ?(aggs = []) ?(kind = B.Foreach)
    () =
  let g, base = base_t G.empty in
  let g, q = G.fresh_quant g base kind in
  let g, grp =
    G.add_box g
      (B.Group { B.grp_quant = q; grp_grouping = grouping; grp_aggs = aggs })
  in
  G.set_root g grp

let count_star = { E.fn = E.Count_star; distinct = false }
let sum_agg = { E.fn = E.Sum; distinct = false }

let test_v108_bad_grouping_key () =
  expect_code "grouping key not in child" "V108"
    (group_over ~grouping:(B.Simple [ "ghost" ])
       ~aggs:[ ("c", { B.agg = count_star; arg = None }) ]
       ())

let test_v109_agg_arity () =
  expect_code "SUM without argument" "V109"
    (group_over ~aggs:[ ("s", { B.agg = sum_agg; arg = None }) ] ());
  expect_code "COUNT(*) with argument" "V109"
    (group_over ~aggs:[ ("c", { B.agg = count_star; arg = Some "v" }) ] ())

let test_v111_scalar_group_child () =
  expect_code "scalar quantifier under GROUP BY" "V111"
    (group_over ~kind:B.Scalar
       ~aggs:[ ("c", { B.agg = count_star; arg = None }) ]
       ())

let test_v112_count_star_distinct () =
  expect_code "DISTINCT COUNT(*)" "V112"
    (group_over
       ~aggs:
         [ ("c", { B.agg = { E.fn = E.Count_star; distinct = true }; arg = None }) ]
       ())

let test_v113_non_canonical_gsets () =
  expect_code "empty grouping-set list" "V113"
    (group_over ~grouping:(B.Gsets []) ());
  expect_code "singleton grouping-set list" "V113"
    (group_over ~grouping:(B.Gsets [ [ "g" ] ]) ());
  expect_code "duplicate grouping sets" "V113"
    (group_over ~grouping:(B.Gsets [ [ "g" ]; [ "g" ] ]) ())

let test_v110_union_arity () =
  let g, b1 = base_t G.empty in
  let g, q1 = G.fresh_quant g b1 B.Foreach in
  let g, s1 = select ~quants:[ q1 ] ~outs:[ ("a", qcol q1 "g") ] g in
  let g, q2 = G.fresh_quant g b1 B.Foreach in
  let g, s2 =
    select ~quants:[ q2 ]
      ~outs:[ ("a", qcol q2 "g"); ("b", qcol q2 "v") ]
      g
  in
  let g, u1 = G.fresh_quant g s1 B.Foreach in
  let g, u2 = G.fresh_quant g s2 B.Foreach in
  let g, union =
    G.add_box g
      (B.Union { B.un_quants = [ u1; u2 ]; un_all = true; un_cols = [ "a" ] })
  in
  expect_code "branch arity mismatch" "V110" (G.set_root g union)

let test_v114_presentation () =
  let g, _, _ = valid_graph () in
  expect_code "ORDER BY unknown column" "V114"
    (G.set_presentation g { G.order_by = [ ("ghost", true) ]; limit = None });
  expect_code "negative LIMIT" "V114"
    (G.set_presentation g { G.order_by = []; limit = Some (-1) })

let test_v116_no_outputs () =
  let g, _, q = valid_graph () in
  let root = G.root g in
  let g =
    G.update_box g root
      (B.Select
         {
           B.sel_quants = [ q ];
           sel_preds = [];
           sel_outs = [];
           sel_distinct = false;
         })
  in
  expect_code "root without outputs" "V116" g

let test_v117_no_quantifiers () =
  let g, root =
    select ~quants:[] ~outs:[ ("one", E.Const (V.Int 1)) ] G.empty
  in
  expect_code "SELECT without quantifiers" "V117" (G.set_root g root)

let test_v115_non_boolean_predicate () =
  let cat =
    Catalog.add_table Catalog.empty
      {
        Catalog.tbl_name = "t";
        tbl_cols =
          [
            { Catalog.col_name = "g"; col_ty = V.Tint; nullable = false };
            { Catalog.col_name = "v"; col_ty = V.Tint; nullable = false };
          ];
        primary_key = [];
        unique_keys = [];
        foreign_keys = [];
      }
  in
  let g, _, q = valid_graph () in
  let root = G.root g in
  let g =
    G.update_box g root
      (B.Select
         {
           B.sel_quants = [ q ];
           (* an INT-typed expression where a boolean belongs *)
           sel_preds = [ E.Binop ("+", qcol q "v", E.Const (V.Int 1)) ];
           sel_outs = [ ("g", qcol q "g") ];
           sel_distinct = false;
         })
  in
  expect_code ~cat "non-boolean predicate" "V115" g;
  (* without a catalog the typing check is skipped, not crashed *)
  Alcotest.(check (list string)) "untyped check skips V115" []
    (codes (Val.check g))

(* builder output validates cleanly, catalog-typed included *)
let test_builder_output_clean () =
  let cat = Workload.Star_schema.catalog () in
  List.iter
    (fun sql ->
      let g = Qgm.Builder.build cat (parse sql) in
      Alcotest.(check (list string))
        (Printf.sprintf "%s is clean" sql)
        [] (codes (Val.check ~cat g)))
    [
      "SELECT flid, SUM(qty) AS s, COUNT(*) AS c FROM Trans GROUP BY flid";
      "SELECT flid, faid, SUM(price) AS r FROM Trans WHERE qty > 2 GROUP BY \
       GROUPING SETS((flid, faid), (flid), ())";
      "SELECT COUNT(DISTINCT faid) AS u FROM Trans";
    ]

(* ---------------- advisor L-codes, end to end ---------------- *)

let advisor_session () =
  let sn = Sess.create () in
  ignore
    (Sess.exec_sql sn
       "CREATE TABLE orders (region VARCHAR NOT NULL, channel VARCHAR, \
        amount INT NOT NULL); \
        INSERT INTO orders VALUES ('e', 'web', 10), ('w', NULL, 3);");
  sn

(* V118: the prover shows the WHERE conjunction can never hold *)
let test_v118_unsat_predicate () =
  let cat = Engine.Db.catalog (Sess.db (advisor_session ())) in
  let g =
    Qgm.Builder.build cat
      (parse "SELECT region, amount FROM orders WHERE amount < 5 AND amount > 10")
  in
  Alcotest.(check bool) "deep check flags V118" true
    (List.mem "V118" (codes (Val.check ~cat ~deep:true g)));
  Alcotest.(check bool) "shallow check skips V118" false
    (List.mem "V118" (codes (Val.check ~cat g)))

let diags_of sn name =
  match List.assoc_opt name (Sess.lint_summaries sn) with
  | Some ds -> List.map (fun d -> d.Lint.Advisor.d_code) ds
  | None -> Alcotest.failf "summary %s not found" name

let expect_diag sn name code =
  let cs = diags_of sn name in
  Alcotest.(check bool)
    (Printf.sprintf "%s has %s (got %s)" name code (String.concat "," cs))
    true (List.mem code cs)

let test_advisor_codes () =
  let sn = advisor_session () in
  ignore
    (Sess.exec_sql sn
       "CREATE SUMMARY TABLE avg_only AS SELECT region, AVG(amount) AS a \
        FROM orders GROUP BY region;");
  expect_diag sn "avg_only" "L101";
  expect_diag sn "avg_only" "L103";
  ignore
    (Sess.exec_sql sn
       "CREATE SUMMARY TABLE dist AS SELECT region, COUNT(DISTINCT channel) \
        AS u, COUNT(*) AS c FROM orders GROUP BY region;");
  expect_diag sn "dist" "L102";
  ignore
    (Sess.exec_sql sn
       "CREATE SUMMARY TABLE roll AS SELECT region, channel, SUM(amount) AS \
        s, COUNT(*) AS c FROM orders GROUP BY ROLLUP(region, channel);");
  expect_diag sn "roll" "L104";
  ignore
    (Sess.exec_sql sn
       "CREATE SUMMARY TABLE twin AS SELECT region, SUM(amount) AS s, \
        COUNT(*) AS c FROM orders GROUP BY region;");
  expect_diag sn "twin" "L105"

(* L105 is refined by the prover: range shards that provably share no row
   are complementary, not redundant; an overlapping third one is flagged. *)
let test_advisor_l105_disjoint_shards () =
  let sn = advisor_session () in
  let shard name where =
    ignore
      (Sess.exec_sql sn
         (Printf.sprintf
            "CREATE SUMMARY TABLE %s AS SELECT region, SUM(amount) AS s, \
             COUNT(*) AS c FROM orders WHERE %s GROUP BY region;"
            name where))
  in
  shard "low" "amount < 100";
  shard "high" "amount >= 100";
  let no_l105 name =
    Alcotest.(check bool)
      (Printf.sprintf "%s has no L105" name)
      false
      (List.mem "L105" (diags_of sn name))
  in
  no_l105 "low";
  no_l105 "high";
  shard "mid" "amount >= 50";
  let l105 =
    List.filter
      (fun d -> d.Lint.Advisor.d_code = "L105")
      (List.assoc "mid" (Sess.lint_summaries sn))
  in
  Alcotest.(check bool) "overlapping shard has L105" true (l105 <> []);
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "L105 names the overlap (got %S)" d.Lint.Advisor.d_msg)
        true
        (contains d.Lint.Advisor.d_msg "not provably disjoint"))
    l105

let test_advisor_clean_definition () =
  let sn = advisor_session () in
  ignore
    (Sess.exec_sql sn
       "CREATE SUMMARY TABLE good AS SELECT region, SUM(amount) AS s, \
        COUNT(*) AS c FROM orders GROUP BY region;");
  Alcotest.(check (list string)) "well-shaped summary is clean" []
    (diags_of sn "good")

let test_create_summary_warns_inline () =
  let sn = advisor_session () in
  let out =
    Sess.exec_sql sn
      "CREATE SUMMARY TABLE avg_only AS SELECT region, AVG(amount) AS a \
       FROM orders GROUP BY region;"
  in
  match out with
  | [ Sess.Msg m ] ->
      Alcotest.(check bool)
        (Printf.sprintf "message carries L101 (got %S)" m)
        true
        (contains m "L101")
  | _ -> Alcotest.fail "expected a single message outcome"

(* ---------------- the final-plan check ---------------- *)

let with_clean_faults f =
  F.disarm_all ();
  Fun.protect ~finally:F.disarm_all f

let grouped_session ?config () =
  let sn = Sess.create ?config () in
  ignore
    (Sess.exec_sql sn
       "CREATE TABLE t (g INT NOT NULL, v INT NOT NULL); \
        INSERT INTO t VALUES (1, 10), (1, 20), (2, 5), (3, 8); \
        CREATE SUMMARY TABLE m AS SELECT g, SUM(v) AS s, COUNT(*) AS c \
        FROM t GROUP BY g;");
  sn

let grouped_query = parse "SELECT g, SUM(v) AS s FROM t GROUP BY g"

(* The cost of validation: one run per rewritten plan-cache miss, none on
   a hit. *)
let test_one_run_per_miss () =
  let sn = grouped_session () in
  let runs = Obs.Metrics.counter "lint.validate.runs" in
  let ticks () =
    let before = Obs.Metrics.counter_value runs in
    let _, steps = Sess.run_query sn grouped_query in
    Alcotest.(check bool) "rewritten" true (steps <> []);
    Obs.Metrics.counter_value runs - before
  in
  Alcotest.(check int) "one validator run on a miss" 1 (ticks ());
  Alcotest.(check int) "no validator run on a hit" 0 (ticks ())

(* Acceptance: with runtime verification OFF, an armed Corrupt_plan fault
   breaks the chosen plan's IR and the final check rejects it
   *statically*: a typed invalid-ir rejection in EXPLAIN, the summary
   quarantined, and the query still answered correctly from the base
   plan. *)
let test_corrupt_caught_statically () =
  with_clean_faults @@ fun () ->
  let sn = grouped_session () (* verify defaults to Off *) in
  let plain = grouped_session ~config:(Helpers.no_rewrite ()) () in
  (* sanity: rewrites when healthy *)
  let _, steps = Sess.run_query sn grouped_query in
  Alcotest.(check bool) "rewrites when healthy" true (steps <> []);
  (* new epoch so the cached healthy plan cannot be served *)
  ignore (Sess.exec_sql sn "INSERT INTO t VALUES (4, 2);");
  ignore (Sess.exec_sql plain "INSERT INTO t VALUES (4, 2);");
  let quarantined0 = Helpers.counter "guard.quarantined" in
  let final_rejects = Obs.Metrics.counter "lint.final_rejects" in
  let r0 = Obs.Metrics.counter_value final_rejects in
  F.arm F.Corrupt_plan ~after:1;
  let explain = Sess.explain ~verbose:true sn grouped_query in
  Alcotest.(check bool) "corrupt_plan fault consumed at plan time" false
    (F.armed F.Corrupt_plan);
  Alcotest.(check bool)
    (Printf.sprintf "typed invalid-ir rejection in EXPLAIN (got %s)" explain)
    true (contains explain "invalid-ir");
  Alcotest.(check bool) "V-code visible in the rejection reason" true
    (contains explain "V10");
  Alcotest.(check int) "final-plan reject metric ticked" (r0 + 1)
    (Obs.Metrics.counter_value final_rejects);
  Alcotest.(check int) "the step's summary quarantined" (quarantined0 + 1)
    (Helpers.counter "guard.quarantined");
  (* the corrupted plan never executes: answer equals rewrite-off *)
  let via, steps = Sess.run_query sn grouped_query in
  Alcotest.(check bool) "degraded to base plan" true (steps = []);
  let direct, _ = Sess.run_query plain grouped_query in
  Alcotest.(check bool) "result equals rewrite-off session" true
    (Data.Relation.bag_equal_approx via direct)

let suite =
  [
    Alcotest.test_case "well-formed graph is clean" `Quick
      test_valid_graph_clean;
    Alcotest.test_case "V101 root missing" `Quick test_v101_root_missing;
    Alcotest.test_case "V102 cycle" `Quick test_v102_cycle;
    Alcotest.test_case "V103 dead box" `Quick test_v103_dead_box;
    Alcotest.test_case "V104 foreign quantifier" `Quick test_v104_foreign_quant;
    Alcotest.test_case "V105 unknown column" `Quick test_v105_unknown_column;
    Alcotest.test_case "V106 duplicate outputs" `Quick
      test_v106_duplicate_outputs;
    Alcotest.test_case "V107 aggregate in SELECT" `Quick test_v107_agg_in_select;
    Alcotest.test_case "V108 bad grouping key" `Quick test_v108_bad_grouping_key;
    Alcotest.test_case "V109 aggregate arity" `Quick test_v109_agg_arity;
    Alcotest.test_case "V110 union arity" `Quick test_v110_union_arity;
    Alcotest.test_case "V111 scalar under GROUP BY" `Quick
      test_v111_scalar_group_child;
    Alcotest.test_case "V112 distinct COUNT(*)" `Quick
      test_v112_count_star_distinct;
    Alcotest.test_case "V113 non-canonical grouping sets" `Quick
      test_v113_non_canonical_gsets;
    Alcotest.test_case "V114 presentation" `Quick test_v114_presentation;
    Alcotest.test_case "V115 non-boolean predicate" `Quick
      test_v115_non_boolean_predicate;
    Alcotest.test_case "V116 no outputs" `Quick test_v116_no_outputs;
    Alcotest.test_case "V117 no quantifiers" `Quick test_v117_no_quantifiers;
    Alcotest.test_case "builder output is clean" `Quick
      test_builder_output_clean;
    Alcotest.test_case "advisor L-codes" `Quick test_advisor_codes;
    Alcotest.test_case "advisor clean definition" `Quick
      test_advisor_clean_definition;
    Alcotest.test_case "advisor L105 disjoint shards" `Quick
      test_advisor_l105_disjoint_shards;
    Alcotest.test_case "V118 unsatisfiable predicate" `Quick
      test_v118_unsat_predicate;
    Alcotest.test_case "CREATE SUMMARY warns inline" `Quick
      test_create_summary_warns_inline;
    Alcotest.test_case "one validator run per rewritten miss" `Quick
      test_one_run_per_miss;
    Alcotest.test_case "corrupt caught statically" `Quick
      test_corrupt_caught_statically;
  ]
