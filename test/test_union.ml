(* UNION / UNION ALL: parsing, semantics, nesting in FROM, interaction with
   the rewriter (union blocks are opaque to matching, but their branches
   are not). *)

module R = Data.Relation
module V = Data.Value
open Helpers

let db = lazy (tiny_db ())

let rows sql =
  let db = Lazy.force db in
  List.map (List.map V.to_string) (sorted_rows (run db sql))

let test_union_all () =
  Alcotest.(check (list (list string)))
    "bag concat"
    [ [ "x" ]; [ "x" ]; [ "x" ]; [ "y" ]; [ "y" ]; [ "y" ]; [ "y" ]; [ "y" ]; [ "y" ] ]
    (rows "select grp from fact union all select grp from fact where grp = 'y'")

let test_union_dedups () =
  Alcotest.(check (list (list string)))
    "set union" [ [ "x" ]; [ "y" ] ]
    (rows "select grp from fact union select grp from fact")

let test_mixed_chain_left_assoc () =
  (* (a UNION b) UNION ALL c: dedup first, then append duplicates *)
  Alcotest.(check int) "left associativity" 4
    (List.length
       (rows
          "select grp from fact union select grp from fact union all select \
           distinct grp from fact"))

let test_union_in_from () =
  Alcotest.(check (list (list string)))
    "aggregate over a union"
    [ [ "6" ] ]
    (rows
       "select count(*) as c from (select k from fact where v > 6 union all \
        select k from fact where v <= 6 or v is null) as u")

let test_arity_mismatch () =
  let db = Lazy.force db in
  match run db "select k from fact union all select k, v from fact" with
  | exception Qgm.Builder.Sem_error _ -> ()
  | _ -> Alcotest.fail "arity mismatch accepted"

let test_order_limit_apply_to_whole () =
  let db = Lazy.force db in
  let r =
    run db
      "select k from fact where k <= 2 union all select k from fact where k \
       >= 5 order by k desc limit 2"
  in
  Alcotest.(check (list (list string)))
    "ordered over union" [ [ "6" ]; [ "5" ] ]
    (List.map (List.map V.to_string) (List.map Array.to_list (R.rows r)))

let test_union_column_names_from_head () =
  let db = Lazy.force db in
  let r = run db "select k as id from fact union all select v as other from fact" in
  Alcotest.(check (list string)) "head names win" [ "id" ]
    (Array.to_list (R.columns r))

let test_engines_agree_on_union () =
  let db = Lazy.force db in
  List.iter
    (fun sql ->
      let g = build (Engine.Db.catalog db) sql in
      Alcotest.(check bool) sql true
        (R.bag_equal_approx (Engine.Exec.run db g) (Engine.Reference.run db g)))
    [
      "select grp from fact union all select label from dims";
      "select grp from fact union select label from dims";
      "select grp, count(*) as c from fact group by grp union all select \
       label, id from dims";
    ]

let test_union_roundtrips () =
  let db = Lazy.force db in
  List.iter
    (fun sql ->
      let g = build (Engine.Db.catalog db) sql in
      let printed = Qgm.Unparse.to_sql g in
      let g2 = build (Engine.Db.catalog db) printed in
      Alcotest.(check bool)
        (Printf.sprintf "%s -> %s" sql printed)
        true
        (R.bag_equal_approx (Engine.Exec.run db g) (Engine.Exec.run db g2)))
    [
      "select grp from fact union all select label from dims";
      "select k from fact where v > 6 union select id from dims";
      (* a chain nests in its first branch: every branch must survive *)
      "select grp from fact union all select label from dims union all \
       select grp from fact where v > 6";
      "select grp from fact union select label from dims union all select \
       grp from fact";
    ]

let test_branch_of_union_still_rewrites () =
  (* the union box itself never matches, but a branch block can *)
  let star =
    Engine.Db.of_tables
      (Workload.Star_schema.catalog ())
      (Workload.Star_schema.generate
         {
           Workload.Star_schema.default_params with
           n_custs = 2;
           trans_per_acct_year = 10;
         })
  in
  let rewritten, equal =
    rewrite_check star
      ~query:
        "select s from (select flid as g, sum(qty) as s from Trans group by \
         flid union all select faid as g, sum(qty) as s from Trans group by \
         faid) as u"
      ~ast:"select flid, sum(qty) as s from Trans group by flid"
  in
  Alcotest.(check bool) "branch rewritten" true rewritten;
  Alcotest.(check bool) "results equal" true equal

let test_union_never_subsumed_by_select () =
  let star =
    Engine.Db.of_tables
      (Workload.Star_schema.catalog ())
      (Workload.Star_schema.generate
         {
           Workload.Star_schema.default_params with
           n_custs = 2;
           trans_per_acct_year = 10;
         })
  in
  let rewritten, _ =
    rewrite_check star
      ~query:"select tid from Trans where qty > 2"
      ~ast:
        "select tid from Trans where qty > 2 union all select tid from Trans \
         where qty <= 2"
  in
  Alcotest.(check bool) "union AST cannot answer a select" false rewritten

let suite =
  [
    Alcotest.test_case "union all" `Quick test_union_all;
    Alcotest.test_case "union dedups" `Quick test_union_dedups;
    Alcotest.test_case "mixed chain" `Quick test_mixed_chain_left_assoc;
    Alcotest.test_case "union in FROM" `Quick test_union_in_from;
    Alcotest.test_case "arity mismatch" `Quick test_arity_mismatch;
    Alcotest.test_case "order/limit over union" `Quick
      test_order_limit_apply_to_whole;
    Alcotest.test_case "column names from head" `Quick
      test_union_column_names_from_head;
    Alcotest.test_case "engines agree" `Quick test_engines_agree_on_union;
    Alcotest.test_case "unparse roundtrip" `Quick test_union_roundtrips;
    Alcotest.test_case "branch rewrites" `Quick test_branch_of_union_still_rewrites;
    Alcotest.test_case "union AST opaque" `Quick
      test_union_never_subsumed_by_select;
  ]
