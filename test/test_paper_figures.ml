(* The paper's worked examples, end to end: every figure must make the
   documented match/no-match decision and, when rewritten, produce exactly
   the original query's result on generated data. Table 1's scenario is
   also replayed on the paper's literal sample rows. *)

module R = Data.Relation
module V = Data.Value
open Helpers

let star_db =
  lazy
    (let params =
       {
         Workload.Star_schema.default_params with
         n_custs = 6;
         trans_per_acct_year = 40;
       }
     in
     Engine.Db.of_tables
       (Workload.Star_schema.catalog ())
       (Workload.Star_schema.generate params))

let run_case (c : Workload.Paper_queries.case) () =
  let db = Lazy.force star_db in
  let rewritten, equal = rewrite_check ~mv_name:c.ast_name db ~query:c.query ~ast:c.ast in
  Alcotest.(check bool)
    (Printf.sprintf "%s (%s): rewrite found" c.name c.fig)
    c.expect_rewrite rewritten;
  if rewritten then
    Alcotest.(check bool)
      (Printf.sprintf "%s: rewritten result equals original" c.name)
      true equal

(* Table 1: the sample Trans rows where the AST's HAVING clause silently
   drops the (1, 1991) group the query needs. A naive syntactic matcher
   would produce 3 instead of 4. *)
let table1_catalog () =
  Catalog.add_table Catalog.empty
    {
      Catalog.tbl_name = "Trans";
      tbl_cols =
        [
          { Catalog.col_name = "flid"; col_ty = V.Tint; nullable = false };
          { Catalog.col_name = "date"; col_ty = V.Tdate; nullable = false };
        ];
      primary_key = [];
      unique_keys = [];
      foreign_keys = [];
    }

let test_table1_scenario () =
  let rows =
    [
      [| i 1; d 1990 1 3 |];
      [| i 1; d 1990 2 10 |];
      [| i 1; d 1990 4 12 |];
      [| i 1; d 1991 10 20 |];
    ]
  in
  let db =
    Engine.Db.of_tables (table1_catalog ())
      [ ("Trans", R.create [ "flid"; "date" ] rows) ]
  in
  let query = "select flid, count(*) as cnt from Trans group by flid" in
  let ast =
    "select flid, year(date) as year, count(*) as cnt from Trans group by \
     flid, year(date) having count(*) > 2"
  in
  (* the correct answer is 4 transactions for flid 1 *)
  let direct = run db query in
  Alcotest.(check (list (list string)))
    "query result" [ [ "1"; "4" ] ]
    (List.map (List.map V.to_string) (sorted_rows direct));
  (* the AST itself only holds the 1990 group (count 3) *)
  let ast_content = run db ast in
  Alcotest.(check (list (list string)))
    "ast result" [ [ "1"; "1990"; "3" ] ]
    (List.map (List.map V.to_string) (sorted_rows ast_content));
  (* and the matcher must refuse *)
  let rewritten, _ = rewrite_check db ~query ~ast in
  Alcotest.(check bool) "no match against HAVING ast" false rewritten

(* The same AST without HAVING must match and produce 4. *)
let test_table1_positive_control () =
  let rows =
    [
      [| i 1; d 1990 1 3 |];
      [| i 1; d 1990 2 10 |];
      [| i 1; d 1990 4 12 |];
      [| i 1; d 1991 10 20 |];
    ]
  in
  let db =
    Engine.Db.of_tables (table1_catalog ())
      [ ("Trans", R.create [ "flid"; "date" ] rows) ]
  in
  let query = "select flid, count(*) as cnt from Trans group by flid" in
  let ast =
    "select flid, year(date) as year, count(*) as cnt from Trans group by \
     flid, year(date)"
  in
  let rewritten, equal = rewrite_check db ~query ~ast in
  Alcotest.(check bool) "match without HAVING" true rewritten;
  Alcotest.(check bool) "result correct (4)" true equal

(* EXPERIMENTS.md's "Ablations" table: the positive figures still matched
   with one matching feature switched off, and exactly which are lost. *)
let test_ablations () =
  let cat = Workload.Star_schema.catalog () in
  let positive =
    List.filter
      (fun (c : Workload.Paper_queries.case) -> c.expect_rewrite)
      Workload.Paper_queries.cases
  in
  let lost config =
    List.filter_map
      (fun (c : Workload.Paper_queries.case) ->
        let query = build cat c.query and ast = build cat c.ast in
        if Astmatch.Navigator.find_matches ~config cat ~query ~ast = [] then
          Some c.name
        else None)
      positive
  in
  let d = Astmatch.Config.default in
  Alcotest.(check int) "11 positive figures" 11 (List.length positive);
  List.iter
    (fun (label, config, expected) ->
      Alcotest.(check (list string)) label expected (lost config))
    [
      ("baseline: 11/11", d, []);
      ( "without equivalence classes: FIG5 lost",
        { d with equivalence_classes = false },
        [ "fig5_q2" ] );
      ( "without greedy derivation: 6/11",
        { d with greedy_derivation = false },
        [ "fig7_q6"; "fig13_q11_1"; "fig13_q11_2"; "fig14_q12_1";
          "fig14_q12_2" ] );
      ( "without predicate subsumption: 11/11",
        { d with predicate_subsumption = false },
        [] );
      ("without smallest cuboid: 11/11", { d with smallest_cuboid = false }, []);
    ]

let suite =
  List.map
    (fun (c : Workload.Paper_queries.case) ->
      Alcotest.test_case (c.fig ^ " " ^ c.name) `Quick (run_case c))
    Workload.Paper_queries.cases
  @ [
      Alcotest.test_case "Table 1 sample data" `Quick test_table1_scenario;
      Alcotest.test_case "Table 1 positive control" `Quick
        test_table1_positive_control;
      Alcotest.test_case "ablation table" `Quick test_ablations;
    ]
