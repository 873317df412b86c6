(* A retail dashboard answered from one multidimensional summary table.

   One grouping-sets AST (the paper's section 5) materializes several
   granularities at once; each dashboard panel is a different query and all
   of them route to the same summary table — some by slicing a cuboid, some
   by slicing and re-grouping.

     dune exec examples/retail_dashboard.exe *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.)

let () =
  let tables = Workload.Star_schema.generate (Workload.Star_schema.scaled 2) in
  let session =
    Mvstore.Session.of_tables (Workload.Star_schema.catalog ()) tables
  in
  let say = function
    | Mvstore.Session.Msg m -> print_endline m
    | _ -> ()
  in
  List.iter say
    (Mvstore.Session.exec_sql session
       "CREATE SUMMARY TABLE sales_cube AS \
        SELECT flid, fpgid, year(date) AS year, month(date) AS month, \
        COUNT(*) AS cnt, SUM(qty * price * (1 - disc)) AS revenue \
        FROM Trans \
        GROUP BY GROUPING SETS((flid, year(date), month(date)), \
        (flid, year(date)), (fpgid, year(date)), (year(date), month(date)), \
        (year(date)))");
  print_newline ();

  let panels =
    [
      ( "monthly revenue trend",
        "SELECT year(date) AS year, month(date) AS month, \
         SUM(qty * price * (1 - disc)) AS revenue \
         FROM Trans GROUP BY year(date), month(date) ORDER BY year, month \
         LIMIT 5" );
      ( "yearly totals",
        "SELECT year(date) AS year, COUNT(*) AS transactions, \
         SUM(qty * price * (1 - disc)) AS revenue \
         FROM Trans GROUP BY year(date) ORDER BY year" );
      ( "top product groups (regrouped from (fpgid, year))",
        "SELECT fpgid, SUM(qty * price * (1 - disc)) AS revenue \
         FROM Trans GROUP BY fpgid ORDER BY revenue DESC LIMIT 5" );
      ( "busy locations in recent years (cuboid slice + filter)",
        "SELECT flid, year(date) AS year, COUNT(*) AS cnt \
         FROM Trans WHERE year(date) >= 1995 GROUP BY flid, year(date) \
         HAVING COUNT(*) > 400 ORDER BY cnt DESC LIMIT 5" );
    ]
  in
  List.iter
    (fun (title, sql) ->
      Printf.printf "=== %s ===\n" title;
      let q = Sqlsyn.Parser.parse_query sql in
      let base_only =
        { (Mvstore.Session.config session) with rewrite = false }
      in
      let direct, ms_direct =
        time (fun () ->
            fst (Mvstore.Session.run_query ~config:base_only session q))
      in
      let (via, steps), ms_mv =
        time (fun () -> Mvstore.Session.run_query session q)
      in
      (match steps with
      | [] -> Printf.printf "(not rewritten)\n"
      | s :: _ ->
          Printf.printf "answered from %s: %.1f ms vs %.1f ms direct (%.0fx)\n"
            s.Astmatch.Rewrite.used_mv ms_mv ms_direct (ms_direct /. ms_mv));
      assert (Data.Relation.bag_equal_approx direct via);
      print_endline (Data.Relation.to_string via);
      print_newline ())
    panels
