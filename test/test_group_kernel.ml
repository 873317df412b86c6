(* The vectorized grouping kernel against the reference oracle, on
   generated batches shaped to force each of its paths: the dense array
   (narrow key domains), the open-addressing table through several
   doublings (a wide key domain), and the boxed fallback (FLOAT keys, and
   INT keys whose radix product overflows near min_int/max_int). Every
   key column carries NULLs; the batch also feeds DISTINCT aggregates,
   GROUPING SETS, SELECT DISTINCT and UNION. Answers must be bag-equal to
   the oracle, and groups and distinct rows must come out in first-seen
   order. [tiny_db] only ever reaches the dense path, so the engine
   differential cannot cover the rest. *)

module V = Data.Value
module R = Data.Relation

type shape = Dense | Wide | Span_overflow | Product_overflow | Float_keys | Empty

let shape_name = function
  | Dense -> "dense"
  | Wide -> "wide"
  | Span_overflow -> "span overflow"
  | Product_overflow -> "product overflow"
  | Float_keys -> "float"
  | Empty -> "empty"

(* t(a INT, b INT, d DATE, s VARCHAR, f FLOAT, v INT), every column
   nullable *)
let catalog =
  let open Catalog in
  let col name ty = { col_name = name; col_ty = ty; nullable = true } in
  add_table empty
    {
      tbl_name = "t";
      tbl_cols =
        [
          col "a" V.Tint; col "b" V.Tint; col "d" V.Tdate; col "s" V.Tstr;
          col "f" V.Tfloat; col "v" V.Tint;
        ];
      primary_key = [];
      unique_keys = [];
      foreign_keys = [];
    }

type case = { shape : shape; rows : V.t array list; keys : string list }

let gen_case =
  QCheck.Gen.(
    let* shape =
      oneofl [ Dense; Wide; Span_overflow; Product_overflow; Float_keys; Empty ]
    in
    let nullable g = frequency [ (1, return V.Null); (6, g) ] in
    let int_in lo hi = map (fun x -> V.Int x) (int_range lo hi) in
    let date_in years =
      map (fun k -> V.date (1990 + (k mod years)) 1 (1 + (k mod 28))) nat
    in
    let str_in k = map (fun x -> V.Str (Printf.sprintf "s%d" x)) (int_bound k) in
    let floats = oneofl [ V.Float 0.0; V.Float (-0.0); V.Float 1.5; V.Float (-2.0) ] in
    let n, a, d, s =
      match shape with
      | Dense | Span_overflow | Product_overflow | Float_keys ->
          (int_range 1 60, int_in (-5) 5, date_in 1, str_in 4)
      | Wide ->
          (* nearly every key distinct: past 512 groups the table has
             doubled from 256 slots at least three times *)
          (int_range 600 800, int_in (-10_000) 10_000, date_in 100, str_in 1000)
      | Empty -> (return 0, int_in 0 0, date_in 1, str_in 0)
    in
    let b = match shape with Wide -> a | _ -> int_in (-3) 3 in
    let row =
      let* a = nullable a in
      let* b = nullable b in
      let* d = nullable d in
      let* s = nullable s in
      let* f = nullable floats in
      let* v = nullable (int_in (-20) 20) in
      return [| a; b; d; s; f; v |]
    in
    let* n = n in
    let* rows = list_repeat n row in
    (* a key spanning min_int..max_int overflows its own radix; two keys
       spanning 2^41 each overflow the radix product *)
    let rows =
      match shape with
      | Span_overflow ->
          [| V.Int min_int; V.Int 1; V.Null; V.Null; V.Null; V.Int 1 |]
          :: [| V.Int max_int; V.Null; V.Null; V.Str "s1"; V.Null; V.Null |]
          :: rows
      | Product_overflow ->
          [| V.Int (1 lsl 40); V.Int (-(1 lsl 40)); V.Null; V.Null; V.Null; V.Int 2 |]
          :: [| V.Int (-(1 lsl 40)); V.Int (1 lsl 40); V.Null; V.Null; V.Null; V.Int 3 |]
          :: rows
      | Wide ->
          (* every key again, so groups outlive the doublings they caused *)
          rows @ List.rev rows
      | Dense | Float_keys | Empty -> rows
    in
    (* a dense key space stays within twice the rows (or 1024): one extra
       narrow column at most *)
    let* extra =
      list_size (int_bound (if shape = Dense then 1 else 2)) (oneofl [ "b"; "d"; "s" ])
    in
    let first = match shape with Float_keys -> [ "f" ] | _ -> [ "a" ] in
    let extra = List.sort_uniq compare extra in
    let keys =
      match shape with
      | Wide | Product_overflow -> first @ ("b" :: List.filter (( <> ) "b") extra)
      | _ -> first @ extra
    in
    return { shape; rows; keys })

let print_case c =
  Printf.sprintf "%s, %d rows, keys (%s)" (shape_name c.shape) (List.length c.rows)
    (String.concat ", " c.keys)

let columns = [ "a"; "b"; "d"; "s"; "f"; "v" ]

(* the key tuples of [rows], deduplicated in first-seen order under SQL
   grouping equality *)
let first_seen keys rows =
  let idx = List.map (fun k -> Option.get (List.find_index (( = ) k) columns)) keys in
  List.fold_left
    (fun seen row ->
      let key = List.map (fun i -> row.(i)) idx in
      if List.exists (List.equal V.equal key) seen then seen else key :: seen)
    [] rows
  |> List.rev

let counter = Helpers.counter

let check_case c =
  let db = Engine.Db.of_tables catalog [ ("t", R.create columns c.rows) ] in
  let run engine sql = Engine.Exec.run ~engine db (Helpers.build catalog sql) in
  let agree sql =
    let fast = run Engine.Exec.Vector sql and slow = run Engine.Exec.Reference sql in
    if not (R.bag_equal_approx fast slow) then
      QCheck.Test.fail_reportf "%s\nvector:\n%s\nreference:\n%s" sql (R.to_string fast)
        (R.to_string slow);
    fast
  in
  let in_order what keys rel =
    let key_of row = Array.to_list (Array.sub row 0 (List.length keys)) in
    let got = List.map key_of (R.rows rel) in
    if not (List.equal (List.equal V.equal) got (first_seen keys c.rows)) then
      QCheck.Test.fail_reportf "%s: rows not in first-seen order\n%s" what
        (R.to_string rel)
  in
  let keys = String.concat ", " c.keys in
  (* one grouping call, so each path counter moves by exactly 0 or 1 *)
  let paths = [ "exec.group_dense"; "exec.group_probe"; "exec.group_boxed" ] in
  let before = List.map counter paths and grows0 = counter "exec.group_grows" in
  let grouped =
    agree
      (Printf.sprintf
         "SELECT %s, COUNT(*) AS n, COUNT(v) AS nv, SUM(v) AS sv, AVG(v) AS av, \
          MIN(v) AS lo, MAX(s) AS hi, MIN(d) AS d0, MAX(f) AS f1 FROM t GROUP BY %s"
         keys keys)
  in
  let moved = List.map2 (fun name b -> counter name - b) paths before in
  let expected =
    match c.shape with
    | Dense | Empty -> [ 1; 0; 0 ]
    | Wide -> [ 0; 1; 0 ]
    | Span_overflow | Product_overflow | Float_keys -> [ 0; 0; 1 ]
  in
  if moved <> expected then
    QCheck.Test.fail_reportf "path counters moved by %s, expected %s"
      (String.concat "/" (List.map string_of_int moved))
      (String.concat "/" (List.map string_of_int expected));
  if c.shape = Wide && counter "exec.group_grows" - grows0 < 3 then
    QCheck.Test.fail_reportf "wide keys: fewer than 3 table doublings";
  in_order "GROUP BY" c.keys grouped;
  ignore
    (agree
       (Printf.sprintf
          "SELECT %s, COUNT(DISTINCT a) AS da, SUM(DISTINCT v) AS dv, \
           COUNT(DISTINCT s) AS ds, COUNT(DISTINCT f) AS df FROM t GROUP BY %s"
          keys keys));
  let head = List.hd c.keys in
  ignore
    (agree
       (Printf.sprintf
          "SELECT %s, COUNT(*) AS n, SUM(v) AS sv, COUNT(DISTINCT s) AS ds FROM t \
           GROUP BY GROUPING SETS((%s), (%s), ())"
          keys keys head));
  in_order "SELECT DISTINCT" c.keys
    (agree (Printf.sprintf "SELECT DISTINCT %s FROM t" keys));
  ignore (agree "SELECT a, s FROM t UNION SELECT b, s FROM t");
  ignore (agree "SELECT d, f FROM t WHERE v > 0 UNION SELECT d, f FROM t WHERE v < 5");
  true

let prop_kernel =
  QCheck.Test.make ~name:"grouping kernel matches reference" ~count:40
    (QCheck.make ~print:print_case gen_case)
    check_case

(* every path, whatever the generator drew *)
let test_every_path () =
  List.iter
    (fun shape ->
      let rec draw k =
        let c = QCheck.Gen.generate1 ~rand:(Random.State.make [| k |]) gen_case in
        if c.shape = shape then c else draw (k + 1)
      in
      Alcotest.(check bool) (shape_name shape) true (check_case (draw 0)))
    [ Dense; Wide; Span_overflow; Product_overflow; Float_keys; Empty ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_kernel;
    Alcotest.test_case "every kernel path" `Quick test_every_path;
  ]
