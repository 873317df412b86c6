(* The star-schema generator. Every test, the smoke bench's routing gate and
   the served benchmark's correctness gate read its stream, so the stream
   is pinned here: row counts, per-column sums, the first and last [Trans]
   rows and every catalog distinct count, at scales 1 and 2. The typed
   load path ([generate_batches] into [Session.of_batches]) must agree with
   the boxed one ([generate] into [Session.of_tables]). *)

module W = Workload.Star_schema
module R = Data.Relation
module V = Data.Value
module Sess = Mvstore.Session

type golden = {
  counts : (string * int) list;
  sums : (string * int) list;  (** [Trans]; price and disc x100 *)
  first : string;
  last : string;
  ndvs : (string * int) list;  (** [table.column] *)
}

let dim_ndvs ~custs ~accts =
  [
    ("PGroup.pgid", 20); ("PGroup.pgname", 20); ("Loc.lid", 100);
    ("Loc.city", 100); ("Loc.state", 11); ("Loc.country", 5);
    ("Cust.cid", custs); ("Cust.cname", custs); ("Cust.segment", 2);
    ("Acct.aid", accts); ("Acct.cid", custs); ("Acct.status", 3);
  ]

let golden_1 =
  {
    counts =
      [ ("PGroup", 20); ("Loc", 100); ("Cust", 40); ("Acct", 80); ("Trans", 69066) ];
    sums =
      [
        ("tid", 2385090711); ("faid", 2838872); ("flid", 3659362);
        ("fpgid", 282461); ("date", 1377915227977); ("qty", 206877);
        ("price", 1739961032); ("disc", 778155);
      ];
    first = "1; 1; 50; 10; 1994-05-13; 2; 12.12; 0.0";
    last = "69066; 80; 10; 3; 1996-06-26; 1; 194.04; 0.15";
    ndvs =
      dim_ndvs ~custs:40 ~accts:80
      @ [
          ("Trans.tid", 69066); ("Trans.faid", 80); ("Trans.flid", 100);
          ("Trans.fpgid", 20); ("Trans.date", 1095); ("Trans.qty", 5);
          ("Trans.price", 37267); ("Trans.disc", 4);
        ];
  }

let golden_2 =
  {
    counts =
      [ ("PGroup", 20); ("Loc", 100); ("Cust", 80); ("Acct", 160); ("Trans", 142883) ];
    sums =
      [
        ("tid", 10207847286); ("faid", 11675235); ("flid", 7065945);
        ("fpgid", 586201); ("date", 2850587060008); ("qty", 428715);
        ("price", 3610680096); ("disc", 1607885);
      ];
    first = "1; 1; 8; 1; 1994-01-09; 1; 29.05; 0.0";
    last = "142883; 160; 33; 1; 1996-10-19; 2; 10.47; 0.05";
    ndvs =
      dim_ndvs ~custs:80 ~accts:160
      @ [
          ("Trans.tid", 142883); ("Trans.faid", 160); ("Trans.flid", 100);
          ("Trans.fpgid", 20); ("Trans.date", 1095); ("Trans.qty", 5);
          ("Trans.price", 46753); ("Trans.disc", 4);
        ];
  }

let row_string row = String.concat "; " (Array.to_list (Array.map V.to_string row))

let check_golden scale g () =
  let tables = W.generate (W.scaled scale) in
  Alcotest.(check (list (pair string int)))
    "row counts" g.counts
    (List.map (fun (n, r) -> (n, R.cardinality r)) tables);
  let trans = List.assoc "Trans" tables in
  let rows = R.rows_array trans in
  let sums =
    Array.to_list
      (Array.mapi
         (fun ci c ->
           ( c,
             Array.fold_left
               (fun acc row ->
                 acc
                 +
                 match row.(ci) with
                 | V.Int x | V.Date x -> x
                 | V.Float f -> int_of_float (Float.round (f *. 100.))
                 | v -> Alcotest.failf "Trans.%s holds %s" c (V.to_string v))
               0 rows ))
         (R.columns trans))
  in
  Alcotest.(check (list (pair string int))) "Trans column sums" g.sums sums;
  Alcotest.(check string) "first Trans row" g.first (row_string rows.(0));
  Alcotest.(check string) "last Trans row" g.last
    (row_string rows.(Array.length rows - 1));
  let cat = Engine.Db.catalog (Engine.Db.of_tables (W.catalog ()) tables) in
  let ndvs =
    List.concat_map
      (fun (n, r) ->
        List.map
          (fun c ->
            ( n ^ "." ^ c,
              Option.value ~default:(-1) (Catalog.col_ndv cat n c) ))
          (Array.to_list (R.columns r)))
      tables
  in
  Alcotest.(check (list (pair string int))) "catalog ndvs" g.ndvs ndvs

(* Both load paths at scale 1, with the decision-support summaries. *)
let test_load_paths_agree () =
  let p = W.scaled 1 in
  let load sn =
    List.iter
      (fun (name, sql) ->
        ignore
          (Sess.exec_sql sn
             (Printf.sprintf "CREATE SUMMARY TABLE %s AS %s" name sql)))
      Workload.Decision_support.summary_tables;
    sn
  in
  let typed = load (Sess.of_batches (W.catalog ()) (W.generate_batches p)) in
  let boxed = load (Sess.of_tables (W.catalog ()) (W.generate p)) in
  let tcat = Engine.Db.catalog (Sess.db typed)
  and bcat = Engine.Db.catalog (Sess.db boxed) in
  List.iter
    (fun (tbl : Catalog.table) ->
      let n = tbl.Catalog.tbl_name in
      Alcotest.(check (option int)) (n ^ " row count")
        (Catalog.row_count bcat n) (Catalog.row_count tcat n);
      List.iter
        (fun c ->
          Alcotest.(check (option int)) (n ^ "." ^ c ^ " ndv")
            (Catalog.col_ndv bcat n c) (Catalog.col_ndv tcat n c))
        (Catalog.column_names tbl))
    (Catalog.tables bcat);
  List.iter
    (fun (q : Workload.Decision_support.query) ->
      let parsed = Sqlsyn.Parser.parse_query q.dq_sql in
      List.iter
        (fun rewrite ->
          let run sn =
            fst
              (Sess.run_query ~config:{ (Sess.config sn) with rewrite } sn parsed)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s (rewrite %b): answers equal" q.dq_name rewrite)
            true
            (R.bag_equal (run typed) (run boxed)))
        [ true; false ])
    Workload.Decision_support.queries

let suite =
  [
    Alcotest.test_case "golden stream at scale 1" `Quick (check_golden 1 golden_1);
    Alcotest.test_case "golden stream at scale 2" `Quick (check_golden 2 golden_2);
    Alcotest.test_case "typed and boxed loads agree" `Quick test_load_paths_agree;
  ]
