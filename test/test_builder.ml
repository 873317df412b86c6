(* Semantic analysis: box shapes, name resolution, aggregate extraction,
   supergroup canonicalization, rejection of unsupported constructs. *)

module B = Qgm.Box
module G = Qgm.Graph
open Helpers

let cat () = tiny_catalog ()

let build sql = Helpers.build (cat ()) sql

(* the static IR checker's violations, rendered with their V-codes *)
let violations g =
  List.map Lint.Validate.render (Lint.Validate.check ~cat:(cat ()) g)

let shape g =
  (* root-down chain of box kinds *)
  let rec go id =
    let b = G.box g id in
    let k =
      match b.B.body with
      | B.Base _ -> "base"
      | B.Select _ -> "select"
      | B.Group _ -> "group"
      | B.Union _ -> "union"
    in
    match B.children_ids b with
    | [ c ] -> k :: go c
    | [] -> [ k ]
    | cs -> k :: [ Printf.sprintf "join(%d)" (List.length cs) ]
  in
  go (G.root g)

let test_plain_select_shape () =
  let g = build "select k, v from fact where v > 1" in
  Alcotest.(check (list string)) "one select over base" [ "select"; "base" ]
    (shape g);
  Alcotest.(check (list string)) "validates" [] (violations g)

let test_aggregate_triple () =
  let g = build "select grp, sum(v) as sv from fact group by grp having count(*) > 1" in
  Alcotest.(check (list string)) "select/group/select"
    [ "select"; "group"; "select"; "base" ]
    (shape g);
  Alcotest.(check (list string)) "validates" [] (violations g)

let test_output_columns () =
  let g = build "select grp, sum(v) as sv, count(*) as c from fact group by grp" in
  Alcotest.(check (list string)) "outputs" [ "grp"; "sv"; "c" ]
    (Qgm.Builder.output_columns g)

let test_grouping_expr_computed_below () =
  let g = build "select grp, v + 1 as w, count(*) as c from fact group by grp, v + 1" in
  Alcotest.(check (list string)) "outputs" [ "grp"; "w"; "c" ]
    (Qgm.Builder.output_columns g);
  Alcotest.(check (list string)) "validates" [] (violations g)

let test_select_star () =
  let g = build "select * from dims" in
  Alcotest.(check (list string)) "star expands" [ "id"; "label"; "region" ]
    (Qgm.Builder.output_columns g)

let test_duplicate_agg_shared () =
  let g =
    build
      "select grp, sum(v) as a, sum(v) + count(*) as b from fact group by grp"
  in
  (* both uses of SUM(v) share one aggregate output in the GROUP BY box *)
  let group_boxes =
    List.filter
      (fun id -> B.is_group (G.box g id))
      (G.reachable g (G.root g))
  in
  match group_boxes with
  | [ gid ] -> (
      match (G.box g gid).B.body with
      | B.Group { grp_aggs; _ } ->
          Alcotest.(check int) "two distinct aggregates" 2 (List.length grp_aggs)
      | _ -> assert false)
  | _ -> Alcotest.fail "expected one group box"

let test_canonical_supergroups () =
  let sets_of sql =
    let g = build sql in
    let group_boxes =
      List.filter (fun id -> B.is_group (G.box g id)) (G.reachable g (G.root g))
    in
    match group_boxes with
    | [ gid ] -> (
        match (G.box g gid).B.body with
        | B.Group { grp_grouping; _ } ->
            List.map List.length (B.grouping_sets grp_grouping)
        | _ -> assert false)
    | _ -> Alcotest.fail "expected one group box"
  in
  Alcotest.(check (list int)) "rollup(a,b) -> 3 sets" [ 2; 1; 0 ]
    (sets_of "select count(*) as c from fact group by rollup(grp, v)");
  Alcotest.(check (list int)) "cube(a,b) -> 4 sets" [ 2; 1; 1; 0 ]
    (sets_of "select count(*) as c from fact group by cube(grp, v)");
  Alcotest.(check (list int)) "cross product with plain item" [ 2; 1 ]
    (sets_of
       "select count(*) as c from fact group by grp, grouping sets((v), ())");
  Alcotest.(check (list int)) "duplicate sets removed" [ 1 ]
    (sets_of
       "select count(*) as c from fact group by grouping sets((grp), (grp))")

let test_scalar_subquery () =
  let g =
    build "select k, v * (select count(*) from dims) as scaled from fact"
  in
  Alcotest.(check (list string)) "validates" [] (violations g);
  (* scalar quantifier present in the root select *)
  match (G.box g (G.root g)).B.body with
  | B.Select { sel_quants; _ } ->
      Alcotest.(check int) "two quantifiers" 2 (List.length sel_quants);
      Alcotest.(check bool) "one scalar" true
        (List.exists (fun q -> q.B.q_kind = B.Scalar) sel_quants)
  | _ -> Alcotest.fail "root not a select"

let test_resolution_errors () =
  let expect_sem sql =
    match build sql with
    | exception Qgm.Builder.Sem_error _ -> ()
    | _ -> Alcotest.fail ("should be rejected: " ^ sql)
  in
  expect_sem "select ghost from fact";
  expect_sem "select k from fact, dims where id = id2";
  expect_sem "select fact.v from dims";
  expect_sem "select k from ghost_table";
  expect_sem "select v from fact group by grp";              (* not grouped *)
  expect_sem "select sum(sum(v)) as x from fact";            (* nested agg *)
  expect_sem "select k from fact where sum(v) > 1";          (* agg in WHERE *)
  expect_sem "select k from fact as f1, fact as f1";         (* dup alias *)
  expect_sem
    "select k from fact where v = (select v from dims where id = k)"
    (* correlated: inner k unresolvable *)

(* An unknown column inside a subquery must be reported with the subquery's
   name, not as a bare top-level error — the context chains for nesting. *)
let test_subquery_error_context () =
  let expect_ctx sql fragment =
    match build sql with
    | exception Qgm.Builder.Sem_error m ->
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool)
          (Printf.sprintf "%S mentions %S (got %S)" sql fragment m)
          true (contains m fragment)
    | _ -> Alcotest.fail ("should be rejected: " ^ sql)
  in
  expect_ctx "select a from (select ghost as a from fact) as sub"
    "in subquery sub";
  expect_ctx "select k from fact where v = (select ghost from dims)"
    "in scalar subquery";
  (* correlated reference: the outer column is unresolvable inside *)
  expect_ctx "select k from fact where v = (select v from dims where id = k)"
    "in scalar subquery";
  (* nested: contexts chain outermost-first *)
  expect_ctx
    "select a from (select (select ghost from dims) as a from fact) as outr"
    "in subquery outr: in scalar subquery"

let test_ambiguous_column () =
  (* both tables expose no common column in tiny schema; build one *)
  match
    build "select id from dims as d1, dims as d2"
  with
  | exception Qgm.Builder.Sem_error _ -> ()
  | _ -> Alcotest.fail "ambiguous column accepted"

let test_order_by_forms () =
  let g = build "select grp, count(*) as c from fact group by grp order by c desc, 1" in
  let pres = G.presentation g in
  Alcotest.(check int) "two order keys" 2 (List.length pres.G.order_by);
  Alcotest.(check bool) "positional resolved" true
    (List.exists (fun (c, asc) -> c = "grp" && asc) pres.G.order_by)

let test_base_box_shared () =
  let g = build "select f1.k as a, f2.k as b from fact as f1, fact as f2 where f1.k = f2.k" in
  let bases =
    List.filter (fun id -> B.is_base (G.box g id)) (G.reachable g (G.root g))
  in
  Alcotest.(check int) "one shared base box for self-join" 1 (List.length bases)

let suite =
  [
    Alcotest.test_case "plain select shape" `Quick test_plain_select_shape;
    Alcotest.test_case "aggregate triple" `Quick test_aggregate_triple;
    Alcotest.test_case "output columns" `Quick test_output_columns;
    Alcotest.test_case "grouping expressions" `Quick
      test_grouping_expr_computed_below;
    Alcotest.test_case "select star" `Quick test_select_star;
    Alcotest.test_case "shared aggregates" `Quick test_duplicate_agg_shared;
    Alcotest.test_case "canonical supergroups" `Quick test_canonical_supergroups;
    Alcotest.test_case "scalar subquery" `Quick test_scalar_subquery;
    Alcotest.test_case "resolution errors" `Quick test_resolution_errors;
    Alcotest.test_case "subquery error context" `Quick
      test_subquery_error_context;
    Alcotest.test_case "ambiguous column" `Quick test_ambiguous_column;
    Alcotest.test_case "order by forms" `Quick test_order_by_forms;
    Alcotest.test_case "base box sharing" `Quick test_base_box_shared;
  ]
