(* Executor semantics: joins with NULLs, 3VL filtering, aggregates,
   DISTINCT, grouping sets (the paper's Figure 12 table), scalar
   subqueries, presentation. *)

module R = Data.Relation
module V = Data.Value
open Helpers

let db () = tiny_db ()

let test_filter_3vl () =
  (* v > 6 must drop the NULL v row, not keep it *)
  let r = run (db ()) "select k from fact where v > 6" in
  Alcotest.(check (list (list string)))
    "rows" [ [ "1" ]; [ "2" ]; [ "5" ]; [ "6" ] ]
    (List.map (List.map V.to_string) (sorted_rows r))

let test_join_basic () =
  let r =
    run (db ())
      "select label, count(*) as c from fact, dims where dim = id group by \
       label order by label"
  in
  Alcotest.(check (list (list string)))
    "join groups"
    [ [ "a"; "2" ]; [ "b"; "2" ]; [ "c"; "2" ] ]
    (List.map (List.map V.to_string) (List.map Array.to_list (R.rows r)))

let test_join_null_keys_dont_match () =
  let cat = tiny_catalog () in
  let dims =
    R.create [ "id"; "label"; "region" ] [ [| i 1; s "a"; s "e" |] ]
  in
  let fact =
    R.create [ "k"; "dim"; "grp"; "v" ]
      [ [| i 1; i 1; s "x"; i 1 |]; [| i 2; i 1; s "x"; V.Null |] ]
  in
  let db = Engine.Db.of_tables cat [ ("dims", dims); ("fact", fact) ] in
  (* join on v = id: NULL v must not join with anything *)
  let r = run db "select k from fact, dims where v = id" in
  Alcotest.(check int) "null join key drops" 1 (R.cardinality r)

let test_cross_product () =
  let r = run (db ()) "select fact.k as k, dims.id as d from fact, dims" in
  Alcotest.(check int) "6*3 rows" 18 (R.cardinality r)

let test_aggregates () =
  let r =
    run (db ())
      "select grp, count(*) as c, count(v) as cv, sum(v) as sv, min(v) as mn, \
       max(v) as mx, avg(v) as av from fact group by grp order by grp"
  in
  Alcotest.(check (list (list string)))
    "all aggregates"
    [
      [ "x"; "3"; "2"; "30"; "10"; "20"; "15.0" ];
      [ "y"; "3"; "3"; "19"; "5"; "7"; "6.33333" ];
    ]
    (List.map (List.map V.to_string) (List.map Array.to_list (R.rows r)))

let test_distinct_aggregates () =
  let r =
    run (db ())
      "select grp, count(distinct v) as dv, sum(distinct v) as sdv from fact \
       group by grp order by grp"
  in
  Alcotest.(check (list (list string)))
    "distinct aggregates"
    [ [ "x"; "2"; "30" ]; [ "y"; "2"; "12" ] ]
    (List.map (List.map V.to_string) (List.map Array.to_list (R.rows r)))

let test_grand_total_empty_input () =
  let r = run (db ()) "select count(*) as c, sum(v) as sv from fact where v > 1000" in
  Alcotest.(check (list (list string)))
    "one row, count 0, sum null"
    [ [ "0"; "NULL" ] ]
    (List.map (List.map V.to_string) (List.map Array.to_list (R.rows r)))

let test_grouped_empty_input () =
  let r = run (db ()) "select grp, count(*) as c from fact where v > 1000 group by grp" in
  Alcotest.(check int) "no groups" 0 (R.cardinality r)

let test_select_distinct () =
  let r = run (db ()) "select distinct grp from fact" in
  Alcotest.(check int) "two values" 2 (R.cardinality r)

let test_scalar_subquery () =
  let r = run (db ()) "select k, v * (select count(*) from dims) as t from fact where k = 1" in
  Alcotest.(check (list (list string)))
    "scaled" [ [ "1"; "30" ] ]
    (List.map (List.map V.to_string) (List.map Array.to_list (R.rows r)))

let test_scalar_subquery_empty_is_null () =
  let r =
    run (db ())
      "select k, (select id from dims where label = 'nope') as missing from \
       fact where k = 1"
  in
  Alcotest.(check (list (list string)))
    "null scalar" [ [ "1"; "NULL" ] ]
    (List.map (List.map V.to_string) (List.map Array.to_list (R.rows r)))

let test_order_limit () =
  let r = run (db ()) "select k from fact order by k desc limit 2" in
  Alcotest.(check (list (list string)))
    "top 2 desc" [ [ "6" ]; [ "5" ] ]
    (List.map (List.map V.to_string) (List.map Array.to_list (R.rows r)))

(* The paper's Figure 12: grouping-sets semantics on the sample table. *)
let fig12_catalog () =
  Catalog.add_table Catalog.empty
    {
      Catalog.tbl_name = "T";
      tbl_cols =
        [
          { Catalog.col_name = "flid"; col_ty = V.Tint; nullable = false };
          { Catalog.col_name = "year"; col_ty = V.Tint; nullable = false };
          { Catalog.col_name = "faid"; col_ty = V.Tint; nullable = false };
        ];
      primary_key = [];
      unique_keys = [];
      foreign_keys = [];
    }

let fig12_rows =
  [
    [| i 1; i 1990; i 100 |];
    [| i 1; i 1991; i 100 |];
    [| i 1; i 1991; i 200 |];
    [| i 1; i 1991; i 300 |];
    [| i 1; i 1992; i 100 |];
    [| i 1; i 1992; i 400 |];
    [| i 2; i 1991; i 400 |];
    [| i 2; i 1991; i 400 |];
  ]

let test_figure12 () =
  let db =
    Engine.Db.of_tables (fig12_catalog ())
      [ ("T", R.create [ "flid"; "year"; "faid" ] fig12_rows) ]
  in
  let r =
    run db
      "select flid, year, faid, count(*) as cnt from T group by grouping \
       sets((flid, year), (flid, faid))"
  in
  let expected =
    R.create [ "flid"; "year"; "faid"; "cnt" ]
      [
        (* (flid, year) cuboid *)
        [| i 1; i 1990; V.Null; i 1 |];
        [| i 1; i 1991; V.Null; i 3 |];
        [| i 1; i 1992; V.Null; i 2 |];
        [| i 2; i 1991; V.Null; i 2 |];
        (* (flid, faid) cuboid *)
        [| i 1; V.Null; i 100; i 3 |];
        [| i 1; V.Null; i 200; i 1 |];
        [| i 1; V.Null; i 300; i 1 |];
        [| i 1; V.Null; i 400; i 1 |];
        [| i 2; V.Null; i 400; i 2 |];
      ]
  in
  check_rows "figure 12 cuboids" expected r

let test_rollup_execution () =
  let db =
    Engine.Db.of_tables (fig12_catalog ())
      [ ("T", R.create [ "flid"; "year"; "faid" ] fig12_rows) ]
  in
  let r =
    run db "select flid, year, count(*) as cnt from T group by rollup(flid, year)"
  in
  (* 4 (flid,year) + 2 (flid) + 1 () = 7 rows *)
  Alcotest.(check int) "rollup rows" 7 (R.cardinality r);
  let grand =
    List.filter
      (fun row -> row.(0) = V.Null && row.(1) = V.Null)
      (R.rows r)
  in
  Alcotest.(check (list (list string)))
    "grand total" [ [ "NULL"; "NULL"; "8" ] ]
    (List.map (List.map V.to_string) (List.map Array.to_list grand))

let test_having () =
  let r =
    run (db ()) "select grp, count(v) as c from fact group by grp having count(v) > 2"
  in
  Alcotest.(check (list (list string)))
    "having filters groups" [ [ "y"; "3" ] ]
    (List.map (List.map V.to_string) (List.map Array.to_list (R.rows r)))

let test_scan_error () =
  let cat = tiny_catalog () in
  let db = Engine.Db.of_tables cat [] in
  match run db "select k from fact" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "missing table contents should fail"

(* NaN is a float value, not NULL. The aggregate accumulators once tested
   for "no value yet" with structural (=) against V.Null — harmless until a
   NaN arrives, because (=) on nan is false even against itself. Every
   engine must count NaN as present, let it poison SUM/AVG, and order it
   with the same total order (Float.compare: nan below every number, so
   MIN picks it and MAX ignores it). *)
let test_nan_aggregates () =
  let cat =
    Catalog.(
      add_table empty
        {
          tbl_name = "m";
          tbl_cols =
            [
              { col_name = "g"; col_ty = V.Tint; nullable = false };
              { col_name = "x"; col_ty = V.Tfloat; nullable = true };
            ];
          primary_key = [];
          unique_keys = [];
          foreign_keys = [];
        })
  in
  let rel =
    R.create [ "g"; "x" ]
      [
        [| i 1; f 1.5 |];
        [| i 1; f Float.nan |];
        [| i 2; f Float.nan |];
        [| i 2; V.Null |];
        [| i 2; f 2.0 |];
      ]
  in
  let db = Engine.Db.of_tables cat [ ("m", rel) ] in
  let sql =
    "SELECT g, COUNT(x) AS c, SUM(x) AS s, MIN(x) AS mn, MAX(x) AS mx, \
     AVG(x) AS a FROM m GROUP BY g"
  in
  let vec = Engine.Exec.run db (build cat sql) in
  let orc = Engine.Reference.run db (build cat sql) in
  (* bag_equal_approx can't see NaN = NaN (abs-diff on nan is false), so
     compare under the polymorphic total order instead *)
  let same what a b =
    Alcotest.(check bool) what true (compare (sorted_rows a) (sorted_rows b) = 0)
  in
  same "vector = reference over NaN" vec orc;
  let checked = ref 0 in
  List.iter
    (fun r ->
      let is_nan what = function
        | V.Float x -> Alcotest.(check bool) what true (Float.is_nan x)
        | v -> Alcotest.failf "%s: got %s" what (V.to_string v)
      in
      match Array.to_list r with
      | [ V.Int 1; V.Int c; s; mn; V.Float mx; a ] ->
          incr checked;
          Alcotest.(check int) "COUNT includes NaN" 2 c;
          is_nan "SUM poisoned by NaN" s;
          is_nan "MIN orders NaN below all" mn;
          Alcotest.(check (float 1e-9)) "MAX skips NaN" 1.5 mx;
          is_nan "AVG poisoned by NaN" a
      | [ V.Int 2; V.Int c; _; _; _; _ ] ->
          incr checked;
          (* NULL excluded, NaN counted *)
          Alcotest.(check int) "COUNT: NULL out, NaN in" 2 c
      | _ -> Alcotest.failf "unexpected row shape in %s" (R.to_string vec))
    (R.rows vec);
  Alcotest.(check int) "both groups present" 2 !checked

(* The one stored form: [Db.put] decodes a relation into a column batch
   once and computes its statistics from the typed columns. Relations of
   every column shape must come back bag-equal through [Db.get], and the
   catalog's row count and per-column distinct counts must equal a scan of
   the boxed rows — the statistics the planner saw before tables were
   stored as batches. *)

(* The oracle: a hash table of each column's boxed values, the scan that
   counted statistics when tables were stored as rows. *)
let recompute_ndvs cat name rel =
  Array.to_list (Data.Relation.columns rel)
  |> List.fold_left
       (fun cat col ->
         let seen = Hashtbl.create 64 in
         let i = Data.Relation.column_index rel col in
         Array.iter
           (fun row -> Hashtbl.replace seen row.(i) ())
           (Data.Relation.rows_array rel);
         Catalog.set_col_ndv cat name col (Hashtbl.length seen))
       cat

let shape_cols = [ "i"; "f"; "m"; "s"; "d"; "b"; "n" ]

(* Shapes that reach every typed distinct-count path: narrow and wide
   integer spans (up to [min_int .. max_int], whose width overflows),
   floats with both zeros, NaNs of several bit patterns, infinity and
   hundreds of other values, and up to 600 rows, so the hash sets grow. *)
let gen_shaped_relation =
  let open QCheck.Gen in
  let nullable g = frequency [ (1, return V.Null); (4, g) ] in
  let floats =
    [ 0.0; -0.0; Float.nan; -.Float.nan; Int64.float_of_bits 0x7FF0000000000001L;
      1.5; -2.25; 3.0; Float.infinity ]
  in
  let float_gen =
    frequency
      [ (3, oneofl floats); (1, map (fun x -> float_of_int x /. 8.) (int_range (-2000) 2000)) ]
  in
  let* wide = bool in
  let int_gen =
    if not wide then int_range (-3) 3
    else
      frequency
        [
          (3, int_range (-3) 3);
          (1, oneofl [ min_int; max_int; min_int + 1; max_int - 1 ]);
          (2, int);
        ]
  in
  let row =
    let* ints = nullable (map (fun x -> V.Int x) int_gen) in
    let* fl = nullable (map (fun x -> V.Float x) float_gen) in
    (* an INT value in a FLOAT column, colliding with floats at 0 and 3 *)
    let* mixed =
      nullable
        (oneof
           [
             map (fun x -> V.Int x) (int_range 0 3);
             map (fun x -> V.Float x) (oneofl floats);
           ])
    in
    let* str = nullable (map (fun x -> V.Str x) (oneofl [ ""; "a"; "b"; "é" ])) in
    let* date = nullable (map (fun d -> V.date 1995 1 d) (int_range 1 4)) in
    let* b = nullable (map (fun x -> V.Bool x) bool) in
    return [| ints; fl; mixed; str; date; b; V.Null |]
  in
  let* n =
    frequency [ (1, return 0); (6, int_range 1 40); (3, int_range 41 600) ]
  in
  map (R.create shape_cols) (list_repeat n row)

(* A hash table of a column's boxed values: the oracle for a stored
   batch's distinct counts. *)
let boxed_ndv (c : Engine.Column.t) =
  let seen = Hashtbl.create 64 in
  Array.iter (fun v -> Hashtbl.replace seen v ()) (Engine.Column.to_values c);
  Hashtbl.length seen

let prop_stored_roundtrip =
  QCheck.Test.make ~name:"stored batches round-trip with row-scan statistics"
    ~count:300
    (QCheck.make
       ~print:(fun (rel, k) -> Printf.sprintf "split %d of %s" k (R.to_string rel))
       QCheck.Gen.(pair gen_shaped_relation nat))
    (fun (rel, k) ->
      let db = Engine.Db.put (Engine.Db.create Catalog.empty) "t" rel in
      let back = Engine.Db.get_exn db "t" in
      let cat = Engine.Db.catalog db in
      let oracle = recompute_ndvs Catalog.empty "t" rel in
      if R.columns back <> R.columns rel then
        QCheck.Test.fail_reportf "columns changed: %s" (R.to_string back);
      if not (R.bag_equal back rel) then
        QCheck.Test.fail_reportf "contents changed: %s" (R.to_string back);
      if Catalog.row_count cat "t" <> Some (R.cardinality rel) then
        QCheck.Test.fail_report "row count differs from the scan";
      List.iter
        (fun c ->
          let stored = Catalog.col_ndv cat "t" c
          and scanned = Catalog.col_ndv oracle "t" c in
          if stored <> scanned then
            QCheck.Test.fail_reportf "ndv(%s): stored %s, row scan %s" c
              (Option.fold ~none:"-" ~some:string_of_int stored)
              (Option.fold ~none:"-" ~some:string_of_int scanned))
        shape_cols;
      (* the same rows stored as two decoded pieces concatenated, whose
         string columns carry different dictionaries *)
      let rows = R.rows rel in
      let k = if rows = [] then 0 else k mod (List.length rows + 1) in
      let piece rs = Engine.Column.of_relation (R.create shape_cols rs) in
      let a = piece (List.filteri (fun i _ -> i < k) rows)
      and b = piece (List.filteri (fun i _ -> i >= k) rows) in
      let joined =
        {
          a with
          Engine.Column.cols =
            Array.map2
              (fun x y -> Engine.Column.concat [ x; y ])
              a.Engine.Column.cols b.Engine.Column.cols;
          nrows = a.Engine.Column.nrows + b.Engine.Column.nrows;
        }
      in
      let cat =
        Engine.Db.catalog
          (Engine.Db.put_batch (Engine.Db.create Catalog.empty) "u" joined)
      in
      Array.iteri
        (fun i c ->
          let stored = Catalog.col_ndv cat "u" c
          and scanned = boxed_ndv joined.Engine.Column.cols.(i) in
          if stored <> Some scanned then
            QCheck.Test.fail_reportf "concatenated ndv(%s): stored %s, row scan %d" c
              (Option.fold ~none:"-" ~some:string_of_int stored)
              scanned)
        joined.Engine.Column.names;
      true)

(* Distinct counts are recounted once the row count drifts materially
   from the count at the last recount, however small each append. *)
let test_ndv_drift () =
  let keys lo k = R.create [ "k" ] (List.init k (fun j -> [| V.Int (lo + j) |])) in
  let db = ref (Engine.Db.put (Engine.Db.create Catalog.empty) "t" (keys 0 1000)) in
  for step = 0 to 499 do
    db := Engine.Db.append !db "t" (keys (1000 + (4 * step)) 4)
  done;
  let cat = Engine.Db.catalog !db in
  Alcotest.(check (option int)) "row count" (Some 3000) (Catalog.row_count cat "t");
  match Catalog.col_ndv cat "t" "k" with
  | Some ndv ->
      if ndv < 3000 - (3000 / 20) || ndv > 3000 then
        Alcotest.failf "ndv(k) = %d, more than 5%% from 3000" ndv
  | None -> Alcotest.fail "no ndv(k)"

(* Appends write into spare capacity shared by every version of a table.
   Appending to any version — the newest, or an older snapshot as a
   rolled-back statement leaves behind — must leave every other version's
   rows as they were. *)
let prop_append_versions =
  let open QCheck in
  let cols = [ "a"; "x"; "d" ] in
  let gen_row =
    Gen.(
      map3
        (fun a x d -> [| a; x; d |])
        (frequency [ (9, map (fun n -> V.Int n) (int_range 0 99)); (1, return V.Null) ])
        (frequency
           [ (9, map (fun x -> V.Float (float_of_int x /. 4.)) (int_range 0 99));
             (1, map (fun n -> V.Int n) (int_range 0 9)) ])
        (map (fun d -> V.date 1996 1 d) (int_range 1 28)))
  in
  (* each step appends 1–5 rows to the version at some index *)
  let gen_steps = Gen.(list_size (int_range 1 12) (pair nat (list_size (int_range 1 5) gen_row))) in
  Test.make ~name:"appends never change another version's rows" ~count:200
    (make gen_steps)
    (fun steps ->
      let start = R.create cols [ [| i 1; f 0.5; V.date 1996 1 1 |] ] in
      let versions =
        List.fold_left
          (fun versions (pick, rows) ->
            let db, expected = List.nth versions (pick mod List.length versions) in
            versions
            @ [ (Engine.Db.append db "t" (R.create cols rows), R.append expected rows) ])
          [ (Engine.Db.put (Engine.Db.create Catalog.empty) "t" start, start) ]
          steps
      in
      List.for_all
        (fun (db, expected) -> R.bag_equal (Engine.Db.get_exn db "t") expected)
        versions)

(* Each box's histogram observes its own time, its children excluded:
   over one run the per-operator sums add up to at most [exec.run_ms]
   (with inclusive timing the base scan would count once per ancestor). *)
let test_operator_self_time () =
  let db = db () in
  let g = build (Engine.Db.catalog db) "select grp, sum(v) as sv from fact group by grp" in
  let names = [ "exec.base_ms"; "exec.select_ms"; "exec.group_ms"; "exec.union_ms" ] in
  let hist n = Obs.Metrics.histogram n in
  let sums () = List.fold_left (fun acc n -> acc +. Obs.Metrics.hist_sum (hist n)) 0. names in
  let count () = List.fold_left (fun acc n -> acc + Obs.Metrics.hist_count (hist n)) 0 names in
  let run_ms = hist "exec.run_ms" in
  let sum0 = sums () and count0 = count () and run0 = Obs.Metrics.hist_sum run_ms in
  ignore (Engine.Exec.run_batch db g);
  let boxes = count () - count0 in
  Alcotest.(check bool) (Printf.sprintf "at least three boxes (%d)" boxes) true (boxes >= 3);
  let ops = sums () -. sum0 and total = Obs.Metrics.hist_sum run_ms -. run0 in
  if ops > total +. 1e-6 then
    Alcotest.failf "per-operator time %.6f ms exceeds the run's %.6f ms" ops total

let suite =
  [
    Alcotest.test_case "3vl filtering" `Quick test_filter_3vl;
    Alcotest.test_case "hash join" `Quick test_join_basic;
    Alcotest.test_case "null join keys" `Quick test_join_null_keys_dont_match;
    Alcotest.test_case "cross product" `Quick test_cross_product;
    Alcotest.test_case "aggregates" `Quick test_aggregates;
    Alcotest.test_case "distinct aggregates" `Quick test_distinct_aggregates;
    Alcotest.test_case "grand total over empty" `Quick test_grand_total_empty_input;
    Alcotest.test_case "grouped empty input" `Quick test_grouped_empty_input;
    Alcotest.test_case "select distinct" `Quick test_select_distinct;
    Alcotest.test_case "scalar subquery" `Quick test_scalar_subquery;
    Alcotest.test_case "empty scalar subquery" `Quick
      test_scalar_subquery_empty_is_null;
    Alcotest.test_case "order by / limit" `Quick test_order_limit;
    Alcotest.test_case "figure 12 grouping sets" `Quick test_figure12;
    Alcotest.test_case "rollup execution" `Quick test_rollup_execution;
    Alcotest.test_case "having" `Quick test_having;
    Alcotest.test_case "missing contents" `Quick test_scan_error;
    Alcotest.test_case "NaN aggregates across engines" `Quick
      test_nan_aggregates;
    QCheck_alcotest.to_alcotest prop_stored_roundtrip;
    Alcotest.test_case "ndv recount follows append drift" `Quick test_ndv_drift;
    QCheck_alcotest.to_alcotest prop_append_versions;
    Alcotest.test_case "per-operator times exclude children" `Quick
      test_operator_self_time;
  ]
