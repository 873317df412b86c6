(* Quickstart: define a summary table over the paper's star schema and watch
   a query get answered from it.

     dune exec examples/quickstart.exe *)

let () =
  (* 1. A database: the paper's Figure-1 schema, synthetic transactions. *)
  let params = Workload.Star_schema.default_params in
  let tables = Workload.Star_schema.generate params in
  let session =
    Mvstore.Session.of_tables (Workload.Star_schema.catalog ()) tables
  in
  Printf.printf "Trans has %d rows\n\n"
    (Data.Relation.cardinality (List.assoc "Trans" tables));

  (* 2. Create AST1 (the paper's Figure 2): transactions per account,
     location, and year. *)
  List.iter
    (fun o ->
      match o with
      | Mvstore.Session.Msg m -> print_endline m
      | _ -> ())
    (Mvstore.Session.exec_sql session
       ("CREATE SUMMARY TABLE AST1 AS " ^ Workload.Paper_queries.ast1));

  (* 3. Q1 asks for per-account, per-state, per-year counts over USA
     locations — a different grouping, an extra join, and a HAVING clause.
     The rewriter answers it from AST1 anyway. *)
  let q = Sqlsyn.Parser.parse_query Workload.Paper_queries.q1 in
  print_newline ();
  print_string (Mvstore.Session.explain session q);

  (* 4. Run it both ways and compare. *)
  let t0 = Unix.gettimeofday () in
  let base_only = { (Mvstore.Session.config session) with rewrite = false } in
  let direct, _ = Mvstore.Session.run_query ~config:base_only session q in
  let t1 = Unix.gettimeofday () in
  let rewritten, steps = Mvstore.Session.run_query session q in
  let t2 = Unix.gettimeofday () in
  Printf.printf
    "\ndirect: %.1f ms   via %s: %.1f ms   speedup: %.1fx   results equal: %b\n"
    ((t1 -. t0) *. 1000.)
    (match steps with s :: _ -> s.Astmatch.Rewrite.used_mv | [] -> "?")
    ((t2 -. t1) *. 1000.)
    ((t1 -. t0) /. (t2 -. t1))
    (Data.Relation.bag_equal_approx direct rewritten)
