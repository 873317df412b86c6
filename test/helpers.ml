(* Shared test utilities. *)

module V = Data.Value
module R = Data.Relation

let i n = V.Int n
let f x = V.Float x
let s x = V.Str x
let d y m dd = V.date y m dd

(* A tiny two-table schema used by many unit tests:
   fact(k, dim, grp, v)  with FK fact.dim -> dims.id
   dims(id, label, region) *)
let tiny_catalog () =
  let open Catalog in
  let col name ty nullable = { col_name = name; col_ty = ty; nullable } in
  empty
  |> fun cat ->
  add_table cat
    {
      tbl_name = "dims";
      tbl_cols =
        [ col "id" V.Tint false; col "label" V.Tstr false; col "region" V.Tstr true ];
      primary_key = [ "id" ];
      unique_keys = [];
      foreign_keys = [];
    }
  |> fun cat ->
  add_table cat
    {
      tbl_name = "fact";
      tbl_cols =
        [
          col "k" V.Tint false;
          col "dim" V.Tint false;
          col "grp" V.Tstr false;
          col "v" V.Tint true;
        ];
      primary_key = [ "k" ];
      unique_keys = [];
      foreign_keys =
        [ { fk_cols = [ "dim" ]; fk_ref_table = "dims"; fk_ref_cols = [ "id" ] } ];
    }

let tiny_db () =
  let cat = tiny_catalog () in
  let dims =
    R.create [ "id"; "label"; "region" ]
      [
        [| i 1; s "a"; s "east" |];
        [| i 2; s "b"; s "east" |];
        [| i 3; s "c"; V.Null |];
      ]
  in
  let fact =
    R.create [ "k"; "dim"; "grp"; "v" ]
      [
        [| i 1; i 1; s "x"; i 10 |];
        [| i 2; i 1; s "x"; i 20 |];
        [| i 3; i 2; s "y"; i 5 |];
        [| i 4; i 2; s "x"; V.Null |];
        [| i 5; i 3; s "y"; i 7 |];
        [| i 6; i 3; s "y"; i 7 |];
      ]
  in
  Engine.Db.of_tables cat [ ("dims", dims); ("fact", fact) ]

let build cat sql = Qgm.Builder.build cat (Sqlsyn.Parser.parse_query sql)

let run db sql = Engine.Exec.run db (build (Engine.Db.catalog db) sql)

(* Match a query against one AST definition; both given as SQL. *)
let match_sql cat ~query ~ast =
  Astmatch.Navigator.find_matches cat ~query:(build cat query)
    ~ast:(build cat ast)

(* Full pipeline on a db: materialize the AST, rewrite, execute both ways.
   Returns (rewritten?, results_equal). *)
(* Every graph this harness touches must satisfy the static validator —
   builder outputs and every rewrite the navigator accepts. *)
let assert_well_formed ~what cat g =
  match Lint.Validate.check ~cat g with
  | [] -> ()
  | vs -> Alcotest.failf "%s fails validation: %s" what (Lint.Validate.summary vs)

(* [db] with the AST graph [ag] materialized as table [mv_name], and that
   table's columns. *)
let with_mv ~mv_name db ag =
  let cat = Engine.Db.catalog db in
  let mv_rel = Engine.Exec.run db ag in
  let cols = Qgm.Typing.infer_outputs cat ag in
  let cat2 =
    Catalog.add_table cat
      {
        Catalog.tbl_name = mv_name;
        tbl_cols =
          List.map
            (fun (n, ty) ->
              { Catalog.col_name = n; col_ty = ty; nullable = true })
            cols;
        primary_key = [];
        unique_keys = [];
        foreign_keys = [];
      }
  in
  ( Engine.Db.put (Engine.Db.with_catalog db cat2) mv_name mv_rel,
    Array.to_list (R.columns mv_rel) )

(* [qg] rewritten over [mv_name] at each site the navigator matches [ag]
   (cost-based routing is tested separately): one graph per site. [db]
   holds the materialized AST, as {!with_mv} returns it. *)
let rewritten_sites ~mv_name ~mv_cols db ~qg ~ag =
  List.map
    (fun { Astmatch.Navigator.site_box; site_result; _ } ->
      Astmatch.Rewrite.apply ~query:qg ~target:site_box ~result:site_result
        ~mv_table:mv_name ~mv_cols)
    (Astmatch.Navigator.find_matches (Engine.Db.catalog db) ~query:qg ~ast:ag)

let rewrite_check ?(mv_name = "mv0") db ~query ~ast =
  let cat = Engine.Db.catalog db in
  let qg = build cat query in
  let ag = build cat ast in
  assert_well_formed ~what:"builder output (query)" cat qg;
  assert_well_formed ~what:"builder output (ast)" cat ag;
  let db, mv_cols = with_mv ~mv_name db ag in
  (* apply EVERY matched site and require result equality *)
  match rewritten_sites ~mv_name ~mv_cols db ~qg ~ag with
  | [] -> (false, true)
  | gs ->
      let orig = Engine.Exec.run db qg in
      ( true,
        List.for_all
          (fun g' ->
            assert_well_formed ~what:"rewritten plan" (Engine.Db.catalog db) g';
            R.bag_equal_approx orig (Engine.Exec.run db g'))
          gs )

let rows_testable : R.t Alcotest.testable =
  Alcotest.testable R.pp R.bag_equal

let check_rows msg expected actual =
  Alcotest.check rows_testable msg expected actual

let sorted_rows rel =
  List.sort compare (List.map Array.to_list (R.rows rel))

let contains hay needle =
  let h = String.length hay and n = String.length needle in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Session settings with rewriting off: the defaults for a plain
   comparison session, or a session's own for one base-plan statement. *)
let no_rewrite () =
  { (Mvstore.Session.default_config ()) with rewrite = false }

let base_only sn = { (Mvstore.Session.config sn) with rewrite = false }

(* A metrics-registry counter's current value. Counters never reset, so a
   test counts the work under test as a delta across it — only around
   single-threaded code, since the registry is process-wide. *)
let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

(* Two column batches equal value by value, in row order (a float by its
   bits): [None], or where they first differ. The representation of a
   column (its NULL mask, its kind) may differ. *)
let batch_value_diff (a : Engine.Column.batch) (b : Engine.Column.batch) =
  let module C = Engine.Column in
  let bits = function V.Float x -> `Bits (Int64.bits_of_float x) | v -> `V v in
  if a.C.names <> b.C.names then Some "column names"
  else if a.C.nrows <> b.C.nrows then
    Some (Printf.sprintf "row count %d vs %d" a.C.nrows b.C.nrows)
  else
    let found = ref None in
    Array.iteri
      (fun j (ca : C.t) ->
        for r = 0 to a.C.nrows - 1 do
          if !found = None && bits (C.get ca r) <> bits (C.get b.C.cols.(j) r) then
            found :=
              Some
                (Printf.sprintf "row %d column %s: %s vs %s" r a.C.names.(j)
                   (V.to_string (C.get ca r))
                   (V.to_string (C.get b.C.cols.(j) r)))
        done)
      a.C.cols;
    !found

let check_batch_values msg a b =
  match batch_value_diff a b with
  | None -> ()
  | Some where -> Alcotest.failf "%s: %s" msg where
