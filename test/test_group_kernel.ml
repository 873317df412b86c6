(* The vectorized grouping kernel against the reference oracle, on
   generated batches shaped to force each of its paths: the dense array
   (narrow key domains), the open-addressing table (a wide key domain),
   and the boxed fallback (FLOAT keys, and
   INT keys whose radix product overflows near min_int/max_int). Key
   columns carry NULLs, or in some cases none, so both sides of every
   NULL-mask branch run; the batch also feeds DISTINCT aggregates,
   GROUPING SETS, SELECT DISTINCT, UNION and joins with a second,
   independently drawn table. Answers must be bag-equal to the oracle,
   groups and distinct rows must come out in first-seen order, and joins
   in nested-loop order. [tiny_db] only ever reaches the dense path and
   joins on one INT key, so the engine differential cannot cover the
   rest. *)

module V = Data.Value
module R = Data.Relation

let two53 = 1 lsl 53

type shape = Dense | Wide | Span_overflow | Product_overflow | Float_keys | Empty

let shape_name = function
  | Dense -> "dense"
  | Wide -> "wide"
  | Span_overflow -> "span overflow"
  | Product_overflow -> "product overflow"
  | Float_keys -> "float"
  | Empty -> "empty"

(* t and u, both (a INT, b INT, d DATE, s VARCHAR, f FLOAT, v INT), every
   column nullable *)
let catalog =
  let open Catalog in
  let col name ty = { col_name = name; col_ty = ty; nullable = true } in
  let table name =
    {
      tbl_name = name;
      tbl_cols =
        [
          col "a" V.Tint; col "b" V.Tint; col "d" V.Tdate; col "s" V.Tstr;
          col "f" V.Tfloat; col "v" V.Tint;
        ];
      primary_key = [];
      unique_keys = [];
      foreign_keys = [];
    }
  in
  add_table (add_table empty (table "t")) (table "u")

(* [urows] are drawn after [rows] and independently of them, so u's
   string dictionary differs from t's. The columns in [no_nulls] draw no
   NULL, so their columns carry no NULL mask (unless a fixed row of the
   shape puts one there): masked and mask-free columns each occur as the
   first key, as a later key and as an aggregate argument. *)
type case = {
  shape : shape;
  rows : V.t array list;
  keys : string list;
  urows : V.t array list;
  no_nulls : string list;
}

let gen_case =
  QCheck.Gen.(
    let* shape =
      oneofl [ Dense; Wide; Span_overflow; Product_overflow; Float_keys; Empty ]
    in
    (* each column mask-free in about one case of three *)
    let* no_nulls =
      map
        (List.filter_map (fun (c, k) -> if k = 0 then Some c else None))
        (flatten_l
           (List.map (fun c -> map (fun k -> (c, k)) (int_bound 2))
              [ "a"; "b"; "d"; "s"; "f"; "v" ]))
    in
    let nullable_in col g =
      if List.mem col no_nulls then g else frequency [ (1, return V.Null); (6, g) ]
    in
    let int_in lo hi = map (fun x -> V.Int x) (int_range lo hi) in
    let date_in years =
      map (fun k -> V.date (1990 + (k mod years)) 1 (1 + (k mod 28))) nat
    in
    let str_in k = map (fun x -> V.Str (Printf.sprintf "s%d" x)) (int_bound k) in
    let floats = oneofl [ V.Float 0.0; V.Float (-0.0); V.Float 1.5; V.Float (-2.0) ] in
    let size, a, d, s =
      match shape with
      | Dense | Span_overflow | Product_overflow | Float_keys ->
          (int_range 1 60, int_in (-5) 5, date_in 1, str_in 4)
      | Wide ->
          (* nearly every key distinct: hundreds of groups in one table *)
          (int_range 600 800, int_in (-10_000) 10_000, date_in 100, str_in 1000)
      | Empty -> (return 0, int_in 0 0, date_in 1, str_in 0)
    in
    let b = match shape with Wide -> a | _ -> int_in (-3) 3 in
    let row a d s =
      let* a = nullable_in "a" a in
      let* b = nullable_in "b" b in
      let* d = nullable_in "d" d in
      let* s = nullable_in "s" s in
      let* f = nullable_in "f" floats in
      let* v = nullable_in "v" (int_in (-20) 20) in
      return [| a; b; d; s; f; v |]
    in
    let* n = size in
    let* rows = list_repeat n (row a d s) in
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
          (* every key again, so each probe finds a group placed before it *)
          rows @ List.rev rows
      | Float_keys ->
          (* 2^53 and 2^53+1 both promote to 2^53.0: equal to it, and to
             each other, once promoted *)
          [| V.Int two53; V.Null; V.Null; V.Null; V.Float (float_of_int two53); V.Int 4 |]
          :: [| V.Int (two53 + 1); V.Null; V.Null; V.Null; V.Float (-0.0); V.Int 5 |]
          :: rows
      | Dense | Empty -> rows
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
    (* u: the dense distribution beside an empty t, empty itself now and
       then; beside wide keys, a few rows plus some of t's again, so
       probes hit and the oracle's cross product stays small *)
    let usize, ua, ud, us =
      match shape with
      | Empty -> (int_range 1 60, int_in (-5) 5, date_in 1, str_in 4)
      | Wide -> (int_range 10 30, a, d, s)
      | _ -> (size, a, d, s)
    in
    let* un = frequency [ (1, return 0); (7, usize) ] in
    let* fresh = list_repeat un (row ua ud us) in
    let urows =
      match shape with
      | _ when un = 0 -> []
      | Wide -> fresh @ List.filteri (fun i _ -> i mod 50 = 0) rows
      | Float_keys ->
          [| V.Int (two53 + 1); V.Null; V.Null; V.Null; V.Float (float_of_int two53); V.Int 6 |]
          :: [| V.Int 0; V.Null; V.Null; V.Null; V.Float 0.0; V.Int 7 |]
          :: fresh
      | _ -> fresh
    in
    return { shape; rows; keys; urows; no_nulls })

let print_case c =
  Printf.sprintf "%s, %d rows, %d u rows, keys (%s), no NULLs in (%s)" (shape_name c.shape)
    (List.length c.rows) (List.length c.urows) (String.concat ", " c.keys)
    (String.concat ", " c.no_nulls)

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

let db_of c =
  Engine.Db.of_tables catalog
    [ ("t", R.create columns c.rows); ("u", R.create columns c.urows) ]

let agree db sql =
  let g = Helpers.build catalog sql in
  let fast = Engine.Exec.run db g and slow = Engine.Reference.run db g in
  if not (R.bag_equal_approx fast slow) then
    QCheck.Test.fail_reportf "%s\nvector:\n%s\nreference:\n%s" sql (R.to_string fast)
      (R.to_string slow);
  fast

let paths = [ "exec.group_dense"; "exec.group_probe"; "exec.group_boxed" ]

(* [f] makes one grouping call, so each path counter moves by exactly 0 or
   1: by [expected] when given, else on exactly one path *)
let on_one_path ?expected f =
  let before = List.map counter paths in
  let r = f () in
  let moved = List.map2 (fun name b -> counter name - b) paths before in
  let ok =
    match expected with
    | Some e -> moved = e
    | None -> List.sort compare moved = [ 0; 0; 1 ]
  in
  if not ok then
    QCheck.Test.fail_reportf "path counters moved by %s, expected %s"
      (String.concat "/" (List.map string_of_int moved))
      (match expected with
      | Some e -> String.concat "/" (List.map string_of_int e)
      | None -> "one path by 1");
  r

let expected_path = function
  | Dense | Empty -> [ 1; 0; 0 ]
  | Wide -> [ 0; 1; 0 ]
  | Span_overflow | Product_overflow | Float_keys -> [ 0; 0; 1 ]

(* Joins of t (the probe side) with u (the build side) on the case's keys,
   on strings alone, on INT = FLOAT and on nothing (a cross product). The
   answer must come t row by t row, each with its matching u rows
   ascending and NULL keys matching nothing, as this nested loop does it. *)
let check_joins db c =
  let col k = Option.get (List.find_index (( = ) k) columns) in
  let nested pairs =
    List.concat_map
      (fun tr ->
        List.filter_map
          (fun ur ->
            let matches (x, y) =
              let a = tr.(col x) and b = ur.(col y) in
              (not (V.is_null a || V.is_null b)) && V.equal a b
            in
            if List.for_all matches pairs then Some (Array.append tr ur) else None)
          c.urows)
      c.rows
  in
  let both =
    List.concat_map
      (fun q -> List.map (fun k -> Printf.sprintf "%s.%s AS %s%s" q k q k) columns)
      [ "t"; "u" ]
  in
  let join ?expected pairs =
    let sql =
      Printf.sprintf "SELECT %s FROM t, u%s" (String.concat ", " both)
        (match pairs with
        | [] -> ""
        | _ ->
            " WHERE "
            ^ String.concat " AND "
                (List.map (fun (x, y) -> Printf.sprintf "t.%s = u.%s" x y) pairs))
    in
    let got = on_one_path ?expected (fun () -> agree db sql) in
    if not (List.equal (Array.for_all2 V.equal) (R.rows got) (nested pairs)) then
      QCheck.Test.fail_reportf "%s: rows out of nested-loop order\n%s" sql
        (R.to_string got)
  in
  (* beside an empty t, u alone decides the path *)
  let expected = if c.shape = Empty then None else Some (expected_path c.shape) in
  join ?expected (List.map (fun k -> (k, k)) c.keys);
  (* wide cases stop at their keys: the oracle joins by cross product *)
  if c.shape <> Wide then begin
    join [ ("s", "s") ];
    join [ ("a", "f") ];
    join ~expected:[ 1; 0; 0 ] []
  end;
  true

let check_case c =
  let db = db_of c in
  let agree = agree db in
  let in_order what keys rel =
    let key_of row = Array.to_list (Array.sub row 0 (List.length keys)) in
    let got = List.map key_of (R.rows rel) in
    if not (List.equal (List.equal V.equal) got (first_seen keys c.rows)) then
      QCheck.Test.fail_reportf "%s: rows not in first-seen order\n%s" what
        (R.to_string rel)
  in
  let keys = String.concat ", " c.keys in
  let grouped =
    on_one_path ~expected:(expected_path c.shape) (fun () ->
        agree
          (Printf.sprintf
             "SELECT %s, COUNT(*) AS n, COUNT(v) AS nv, SUM(v) AS sv, AVG(v) AS av, \
              MIN(v) AS lo, MAX(s) AS hi, MIN(d) AS d0, MAX(f) AS f1 FROM t GROUP BY %s"
             keys keys))
  in
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
  ignore (agree "SELECT s FROM t UNION SELECT s FROM u");
  check_joins db c

let prop_kernel =
  QCheck.Test.make ~name:"grouping kernel matches reference" ~count:40
    (QCheck.make ~print:print_case gen_case)
    check_case

(* Every aggregate over every typed argument, and the DATE parts, against
   the oracle: SUM and AVG over INT and FLOAT; COUNT, MIN and MAX over INT,
   DATE, FLOAT and strings (a dictionary column); grouped by the case's
   keys and over the whole table. year/month/day of the nullable d are
   projected, grouped on and aggregated. *)
let check_folds c =
  let agree = agree (db_of c) in
  let keys = String.concat ", " c.keys in
  let aggs =
    "COUNT(*) AS n, SUM(v) AS sv, SUM(f) AS sf, AVG(v) AS av, AVG(f) AS af, \
     COUNT(a) AS ca, COUNT(d) AS cd, COUNT(f) AS cf, COUNT(s) AS cs, MIN(a) AS a0, \
     MAX(v) AS v1, MIN(d) AS d0, MAX(d) AS d1, MIN(f) AS f0, MAX(f) AS f1, \
     MIN(s) AS s0, MAX(s) AS s1"
  in
  ignore (agree (Printf.sprintf "SELECT %s, %s FROM t GROUP BY %s" keys aggs keys));
  ignore (agree (Printf.sprintf "SELECT %s FROM t" aggs));
  ignore (agree "SELECT d, year(d) AS y, month(d) AS m, day(d) AS dd FROM t");
  ignore
    (agree
       "SELECT year(d) AS y, month(d) AS m, COUNT(*) AS n, MIN(day(d)) AS d0, \
        MAX(day(d)) AS d1 FROM t GROUP BY year(d), month(d)");
  true

let prop_folds =
  QCheck.Test.make ~name:"typed folds and date parts match reference" ~count:40
    (QCheck.make ~print:print_case gen_case)
    check_folds

(* whether some row of t holds NULL in [col] *)
let masked c col =
  let j = Option.get (List.find_index (( = ) col) columns) in
  List.exists (fun row -> V.is_null row.(j)) c.rows

(* Each branch the kernels specialise on the NULL mask, whatever the
   generator drew: a masked and a mask-free column first among the keys,
   later among them, and as each typed aggregate argument. *)
let test_every_mask_case () =
  let nonempty c = c.rows <> [] in
  let later c = List.tl c.keys in
  let wants =
    [
      ("masked first key", fun c -> masked c (List.hd c.keys));
      ("mask-free first key", fun c -> nonempty c && not (masked c (List.hd c.keys)));
      ("masked later key", fun c -> List.exists (masked c) (later c));
      ( "mask-free later key",
        fun c -> nonempty c && List.exists (fun k -> not (masked c k)) (later c) );
    ]
    @ List.concat_map
        (fun col ->
          [
            ("masked " ^ col, fun c -> masked c col);
            ("mask-free " ^ col, fun c -> nonempty c && not (masked c col));
          ])
        [ "a"; "v"; "d"; "f"; "s" ]
  in
  List.iter
    (fun (what, want) ->
      let rec draw k =
        if k > 10_000 then Alcotest.failf "no case drew a %s" what;
        let c = QCheck.Gen.generate1 ~rand:(Random.State.make [| k |]) gen_case in
        if want c then c else draw (k + 1)
      in
      let c = draw 0 in
      Alcotest.(check bool) (what ^ ": kernel") true (check_case c);
      Alcotest.(check bool) (what ^ ": folds") true (check_folds c))
    wants

(* every path, whatever the generator drew *)
let test_every_path () =
  List.iter
    (fun shape ->
      let rec draw k =
        let c = QCheck.Gen.generate1 ~rand:(Random.State.make [| k |]) gen_case in
        if c.shape = shape then c else draw (k + 1)
      in
      let c = draw 0 in
      Alcotest.(check bool) (shape_name shape) true (check_case c);
      let c = { c with urows = [] } in
      Alcotest.(check bool)
        (shape_name shape ^ ", empty u")
        true
        (check_joins (db_of c) c))
    [ Dense; Wide; Span_overflow; Product_overflow; Float_keys; Empty ]

(* A wide case over the rows whose [a] values are [avals], in order, each
   row's other columns a plain function of its position. *)
let wide_case avals =
  let rows =
    List.mapi
      (fun i a ->
        [|
          V.Int a; V.Int (i mod 3); V.date 1990 1 (1 + (i mod 28));
          V.Str (Printf.sprintf "s%d" (i mod 7)); V.Float (float_of_int (i mod 5));
          V.Int ((i mod 41) - 20);
        |])
      avals
  in
  { shape = Wide; rows; keys = [ "a" ]; urows = []; no_nulls = columns }

(* The probe table is allocated once, at twice the rows rounded up to a
   power of two: 1024 distinct keys fill exactly half of its 2048 slots. *)
let test_half_load () =
  let n = 1024 in
  Alcotest.(check int) "slots" (2 * n) (1 lsl Engine.Vexec.probe_bits n);
  (* distinct, spread over a key space wider than 2n, not in key order *)
  let avals = List.init n (fun i -> i * 7919 mod (7 * n)) in
  Alcotest.(check int) "distinct keys" n (List.length (List.sort_uniq compare avals));
  Alcotest.(check bool) "half load" true (check_case (wide_case avals))

(* Keys whose home is the table's last slot wrap to its first ones, where
   keys at home in slot 0 then probe past them. With [a]'s least value 0,
   a single INT key packs to [a + 1]. Every special key comes again at the
   end, so each lookup walks the same wrapped chain. *)
let test_wrapping_probe () =
  let n = 64 in
  let bits = Engine.Vexec.probe_bits n in
  let home a = Engine.Vexec.probe_home bits (a + 1) in
  let homed slot k =
    let rec go a acc =
      if List.length acc = k then List.rev acc
      else go (a + 1) (if home a = slot then a :: acc else acc)
    in
    go 1 []
  in
  let last = homed ((1 lsl bits) - 1) 3 and first = homed 0 2 in
  let special = (0 :: last) @ first in
  (* distinct fillers above 2000, so the key space passes max 1024 2n *)
  let fillers =
    List.init (n - (2 * List.length special)) (fun i -> 2000 + (37 * i))
  in
  let avals = special @ fillers @ List.rev special in
  Alcotest.(check int) "rows" n (List.length avals);
  Alcotest.(check bool) "wrapping probe" true (check_case (wide_case avals))

(* Column.concat over string pieces decoded separately, so each has its
   own dictionary, some all NULL, and at times one more piece sharing the
   first one's dictionary: the values survive in order, and the result is
   one dictionary column whose entries are distinct, as the kernel's
   packed codes require. *)
let prop_concat_dict =
  let module C = Engine.Column in
  let gen =
    QCheck.Gen.(
      let str = map (fun x -> V.Str (Printf.sprintf "w%d" x)) (int_bound 6) in
      let piece = list_size (int_bound 12) (frequency [ (1, return V.Null); (3, str) ]) in
      let all_null = map (fun n -> List.init n (fun _ -> V.Null)) (int_bound 5) in
      pair (list_size (int_range 1 5) (frequency [ (4, piece); (1, all_null) ])) bool)
  in
  let print =
    QCheck.Print.(pair (list (fun vs -> String.concat "," (List.map V.to_string vs))) bool)
  in
  QCheck.Test.make ~name:"concat merges dictionaries" ~count:300 (QCheck.make ~print gen)
    (fun (pieces, share) ->
      let cols = List.map (fun vs -> C.of_values (Array.of_list vs)) pieces in
      let cols =
        match cols with
        | first :: _ when share ->
            let n = C.length first in
            let idx = C.icreate n in
            for i = 0 to n - 1 do
              Bigarray.Array1.set idx i (n - 1 - i)
            done;
            cols @ [ C.gather first idx n ]
        | _ -> cols
      in
      let got = C.concat cols in
      let want = Array.concat (List.map C.to_values cols) in
      let values = C.to_values got in
      if
        not (Array.length values = Array.length want && Array.for_all2 V.equal values want)
      then QCheck.Test.fail_reportf "values changed";
      (match got.C.data with
      | C.Dict (_, dict) ->
          let distinct = List.sort_uniq compare (Array.to_list dict) in
          if List.length distinct <> Array.length dict then
            QCheck.Test.fail_reportf "repeated dictionary entry"
      | _ ->
          if Array.exists (fun v -> not (V.is_null v)) want then
            QCheck.Test.fail_reportf "strings did not stay a dictionary column");
      true)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_kernel;
    Alcotest.test_case "every kernel path" `Quick test_every_path;
    QCheck_alcotest.to_alcotest prop_concat_dict;
    QCheck_alcotest.to_alcotest prop_folds;
    Alcotest.test_case "every mask case" `Quick test_every_mask_case;
    Alcotest.test_case "probe table at half load" `Quick test_half_load;
    Alcotest.test_case "probe wraps at the table's end" `Quick test_wrapping_probe;
  ]
