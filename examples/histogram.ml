(* Multi-block matching: the paper's Figure 10 histogram queries.

   Q8 is a nested aggregate (aggregate over an aggregate): yearly
   transaction counts, then how many years achieved each count. The
   summary table stores the monthly histogram per year; matching recurses
   through the nested blocks (section 4.2.2) and re-derives the yearly
   counts as SUM(tcnt * mcnt).

     dune exec examples/histogram.exe *)

let () =
  let tables = Workload.Star_schema.generate Workload.Star_schema.default_params in
  let session =
    Mvstore.Session.of_tables (Workload.Star_schema.catalog ()) tables
  in
  List.iter
    (function Mvstore.Session.Msg m -> print_endline m | _ -> ())
    (Mvstore.Session.exec_sql session
       ("CREATE SUMMARY TABLE AST8 AS " ^ Workload.Paper_queries.ast8));
  print_newline ();

  let q = Sqlsyn.Parser.parse_query Workload.Paper_queries.q8 in
  print_endline "Q8 (yearly count histogram):";
  print_endline ("  " ^ Workload.Paper_queries.q8);
  print_newline ();
  print_string (Mvstore.Session.explain session q);
  print_newline ();

  let base_only = { (Mvstore.Session.config session) with rewrite = false } in
  let direct, _ = Mvstore.Session.run_query ~config:base_only session q in
  let via, steps = Mvstore.Session.run_query session q in
  Printf.printf "rewritten: %b, results equal: %b\n" (steps <> [])
    (Data.Relation.bag_equal_approx direct via);
  print_endline (Data.Relation.to_string via)
