(* The summary-table advisor: clustering by join core, union of grouping
   needs, and the end-to-end guarantee that recommended summaries actually
   answer their cluster. *)

module Adv = Mvstore.Advisor
module Sess = Mvstore.Session

let workload =
  [
    "SELECT year(date) AS y, COUNT(*) AS c FROM Trans GROUP BY year(date)";
    "SELECT flid, SUM(qty) AS q FROM Trans GROUP BY flid";
    "SELECT flid, COUNT(*) AS c FROM Trans WHERE qty > 3 GROUP BY flid";
    "SELECT state, COUNT(*) AS c FROM Trans, Loc WHERE flid = lid GROUP BY state";
    "SELECT tid FROM Trans WHERE qty > 1";  (* not an aggregate: skipped *)
  ]

let recs () = Adv.recommend (Workload.Star_schema.catalog ()) workload

let test_clustering () =
  let rs = recs () in
  Alcotest.(check int) "two clusters" 2 (List.length rs);
  let sizes = List.map (fun r -> List.length r.Adv.rec_serves) rs in
  Alcotest.(check (list int)) "cluster sizes" [ 3; 1 ] sizes

let test_filters_add_grouping_columns () =
  let rs = recs () in
  let first = List.hd rs in
  (* qty appears only in a WHERE clause; it must become a grouping column so
     the filter can be re-applied above the summary *)
  let has needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "qty grouped" true (has "qty" first.Adv.rec_sql);
  Alcotest.(check bool) "count(*) always present" true
    (has "COUNT(*)" first.Adv.rec_sql)

let test_recommendations_answer_workload () =
  let tables =
    Workload.Star_schema.generate
      {
        Workload.Star_schema.default_params with
        n_custs = 3;
        trans_per_acct_year = 15;
      }
  in
  let sn = Sess.of_tables (Workload.Star_schema.catalog ()) tables in
  List.iter
    (fun (r : Adv.recommendation) ->
      ignore
        (Sess.exec_sql sn
           (Printf.sprintf "CREATE SUMMARY TABLE %s AS %s" r.rec_name r.rec_sql)))
    (recs ());
  List.iteri
    (fun idx sql ->
      let q = Sqlsyn.Parser.parse_query sql in
      let direct, _ = Sess.run_query ~config:(Helpers.base_only sn) sn q in
      let via, steps = Sess.run_query sn q in
      if idx < 4 then
        Alcotest.(check bool)
          (Printf.sprintf "query %d rewritten" idx)
          true (steps <> []);
      Alcotest.(check bool)
        (Printf.sprintf "query %d equal" idx)
        true
        (Data.Relation.bag_equal_approx direct via))
    workload

let test_empty_workload () =
  Alcotest.(check int) "no recs" 0
    (List.length (Adv.recommend Catalog.empty [ "SELECT a FROM t" ]))

let suite =
  [
    Alcotest.test_case "clustering" `Quick test_clustering;
    Alcotest.test_case "filters become grouping columns" `Quick
      test_filters_add_grouping_columns;
    Alcotest.test_case "recommendations answer workload" `Quick
      test_recommendations_answer_workload;
    Alcotest.test_case "empty workload" `Quick test_empty_workload;
  ]
