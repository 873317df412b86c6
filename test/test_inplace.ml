(* In-place arithmetic and late materialization in the vectorized select.

   The property draws random arithmetic over nullable INT and FLOAT
   columns and constants and checks the vector engine against the
   Reference oracle value by value, floats bit for bit, integer division
   by zero raising on exactly the same inputs. Every query also projects
   [a * 2] beside plain [a] (and [x * 2.0] beside [x]): a kernel that
   wrote into a column it only reads would change the plain outputs, and
   the table itself, which a second Reference run reads.

   The pinned counts read the [exec.scratch_bytes] histogram and the
   [exec.gathered_values] counter around single runs. *)

module V = Data.Value
module R = Data.Relation
open Helpers

(* -------- the property -------- *)

let catalog () =
  let open Catalog in
  let col name ty nullable = { col_name = name; col_ty = ty; nullable } in
  add_table empty
    {
      tbl_name = "t";
      tbl_cols =
        [
          col "k" V.Tint false;
          col "a" V.Tint true;
          col "b" V.Tint true;
          col "x" V.Tfloat true;
          col "y" V.Tfloat true;
        ];
      primary_key = [ "k" ];
      unique_keys = [];
      foreign_keys = [];
    }

type ex = Leaf of string | Bin of string * ex * ex | Neg of ex

let rec sql_of = function
  | Leaf s -> s
  | Bin (op, a, b) -> Printf.sprintf "(%s %s %s)" (sql_of a) op (sql_of b)
  | Neg e -> Printf.sprintf "(- %s)" (sql_of e)

let gen_ex =
  QCheck.Gen.(
    let leaf =
      oneofl [ "a"; "b"; "x"; "y"; "a"; "x"; "0"; "1"; "3"; "0.0"; "0.5"; "2.0" ]
      >|= fun s -> Leaf s
    in
    fix
      (fun self depth ->
        if depth = 0 then leaf
        else
          frequency
            [
              (1, leaf);
              (1, self (depth - 1) >|= fun e -> Neg e);
              ( 4,
                let* op = oneofl [ "+"; "-"; "*"; "/" ] in
                let* a = self (depth - 1) in
                let* b = self (depth - 1) in
                return (Bin (op, a, b)) );
            ])
      4)

let gen_int =
  QCheck.Gen.(frequency [ (1, return V.Null); (4, int_range (-3) 3 >|= fun n -> V.Int n) ])

let gen_float =
  QCheck.Gen.(
    frequency
      [
        (1, return V.Null);
        (4, oneofl [ -2.5; -0.0; 0.0; 0.5; 1.0; 3.0; 1e300 ] >|= fun x -> V.Float x);
      ])

type case = { rows : V.t array list; exprs : ex list }

let gen_case =
  QCheck.Gen.(
    let* n = int_range 0 8 in
    let* rows =
      list_repeat n
        (let* a = gen_int and* b = gen_int and* x = gen_float and* y = gen_float in
         return [| a; b; x; y |])
    in
    let rows = List.mapi (fun k r -> Array.append [| V.Int k |] r) rows in
    let* exprs = list_size (int_range 1 3) gen_ex in
    return { rows; exprs })

let query c =
  let items = List.mapi (fun j e -> Printf.sprintf "%s AS e%d" (sql_of e) j) c.exprs in
  Printf.sprintf "SELECT a AS a0, a * 2 AS a2, %s, a AS a1, x * 2.0 AS x2, x AS x1 FROM t"
    (String.concat ", " items)

let print_case c =
  Printf.sprintf "%s\nrows: %s" (query c)
    (String.concat "; "
       (List.map (fun r -> String.concat "," (Array.to_list (Array.map V.to_string r))) c.rows))

(* equal as values, floats bit for bit *)
let same_value a b =
  match (a, b) with
  | V.Float x, V.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> a = b

let same_rows r1 r2 =
  let a = R.rows_array r1 and b = R.rows_array r2 in
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Array.length x = Array.length y && Array.for_all2 same_value x y)
       a b

let outcome f = try Ok (f ()) with e -> Error e

let prop c =
  let db =
    Engine.Db.of_tables (catalog ()) [ ("t", R.create [ "k"; "a"; "b"; "x"; "y" ] c.rows) ]
  in
  let g = build (Engine.Db.catalog db) (query c) in
  let reference () = outcome (fun () -> Engine.Reference.run db g) in
  let before = reference () in
  let vector = outcome (fun () -> Engine.Exec.run db g) in
  let after = reference () in
  let show = function
    | Ok r -> R.to_string r
    | Error e -> "raised " ^ Printexc.to_string e
  in
  let agree x y =
    match (x, y) with
    | Ok r1, Ok r2 -> same_rows r1 r2
    | Error Division_by_zero, Error Division_by_zero -> true
    | Error Division_by_zero, _ | _, Error Division_by_zero -> false
    | Error _, Error _ -> true
    | _ -> false
  in
  if not (agree before vector) then
    QCheck.Test.fail_reportf "vector:\n%s\nreference:\n%s" (show vector) (show before)
  else if not (agree before after) then
    QCheck.Test.fail_reportf "the table changed under the vector run:\n%s\nthen\n%s"
      (show before) (show after)
  else true

let prop_inplace =
  QCheck.Test.make ~name:"in-place arithmetic matches reference bit for bit" ~count:400
    (QCheck.make ~print:print_case gen_case)
    prop

(* -------- constant folding -------- *)

(* A constant the vector engine folds once per batch raises only when a
   row reaches it, as row-at-a-time evaluation does: both engines return
   no rows over an empty [t] and both raise over a non-empty one. *)
let test_folded_constant () =
  let db rows = Engine.Db.of_tables (catalog ()) [ ("t", R.create [ "k"; "a"; "b"; "x"; "y" ] rows) ] in
  let empty = db [] and one = db [ [| V.Int 0; V.Int 1; V.Null; V.Null; V.Null |] ] in
  List.iter
    (fun sql ->
      List.iter
        (fun (name, exec) ->
          let run db = outcome (fun () -> exec db (build (Engine.Db.catalog db) sql)) in
          (match run empty with
          | Ok r -> Alcotest.(check int) (Printf.sprintf "%s, %s, empty t" name sql) 0 (R.cardinality r)
          | Error e -> Alcotest.failf "%s raised %s over an empty t: %s" name (Printexc.to_string e) sql);
          match run one with
          | Error Division_by_zero -> ()
          | Error e -> Alcotest.failf "%s raised %s: %s" name (Printexc.to_string e) sql
          | Ok _ -> Alcotest.failf "%s did not raise over one row: %s" name sql)
        [ ("vector", fun db g -> Engine.Exec.run db g); ("reference", Engine.Reference.run) ])
    [
      "SELECT k, 1 / 0 AS r FROM t";
      "SELECT k, - (7 % 0) AS r FROM t";
      "SELECT k, mod(1, 0) AS r FROM t";
      "SELECT k FROM t WHERE 1 / 0 = a";
    ]

(* -------- pinned scratch and gather counts -------- *)

let scratch = Obs.Metrics.histogram "exec.scratch_bytes"
let gathered = Obs.Metrics.counter "exec.gathered_values"

let star =
  lazy
    (Engine.Db.of_batches (Workload.Star_schema.catalog ())
       (Workload.Star_schema.generate_batches (Workload.Star_schema.scaled 1)))

(* bytes of scratch and values gathered by one run of [sql], and its rows *)
let measure db sql =
  let g = build (Engine.Db.catalog db) sql in
  let s0 = Obs.Metrics.hist_sum scratch and g0 = Obs.Metrics.counter_value gathered in
  let r = Engine.Exec.run db g in
  (Obs.Metrics.hist_sum scratch -. s0, Obs.Metrics.counter_value gathered - g0, r)

let count db sql =
  match measure db sql with
  | _, _, r -> ( match R.rows_array r with [| [| V.Int n |] |] -> n | _ -> assert false)

(* qty * price * (1 - disc) writes its product into the buffer qty * price
   made, so it asks for two float buffers where one per node and one per
   widened operand asked for five. SUM(qty) runs the same plan with no
   arithmetic, so the difference is the arithmetic's share. *)
let test_arith_scratch () =
  let db = Lazy.force star in
  let k = count db "SELECT COUNT(*) AS c FROM Trans" in
  let expr, _, _ = measure db "SELECT SUM(qty * price * (1 - disc)) AS s FROM Trans" in
  let plain, _, _ = measure db "SELECT SUM(qty) AS s FROM Trans" in
  (* the product's buffer is scratch: the counter is live *)
  Alcotest.(check bool) "scratch observed" true (expr >= float_of_int (8 * k));
  let floats = (expr -. plain) /. 8. in
  if floats > float_of_int ((2 * k) + 512) then
    Alcotest.failf "the arithmetic requested %.0f floats of scratch over %d rows" floats k

(* Each conjunct runs on the survivors of the ones before it, reading only
   its own column, and narrows one selection vector; the output column is
   gathered once, at the final rows. The first conjunct reads qty where it
   is stored, so the run gathers disc at the first survivors and price at
   the second. *)
let test_filter_gathers () =
  let db = Lazy.force star in
  let k1 = count db "SELECT COUNT(*) AS c FROM Trans WHERE qty >= 3" in
  let k2 = count db "SELECT COUNT(*) AS c FROM Trans WHERE qty >= 3 AND disc > 0.05" in
  Alcotest.(check bool) "both conjuncts select" true (k1 > k2 && k2 > 0);
  let _, g, _ =
    measure db "SELECT SUM(price) AS s FROM Trans WHERE qty >= 3 AND disc > 0.05"
  in
  Alcotest.(check int) "values gathered" (k1 + k2) g

(* A global aggregate folds every row into its one group: it requests no
   row-sized group-id buffer, only its one-row outputs. Over an empty
   table it still returns one row (COUNT 0, SUM NULL), and with NULL and
   repeated arguments, DISTINCT ones included, both engines agree. *)
let test_global_aggregate () =
  let db = Lazy.force star in
  let bytes, _, r = measure db "SELECT SUM(qty) AS s FROM Trans" in
  Alcotest.(check int) "one row" 1 (R.cardinality r);
  if bytes >= 65536. then Alcotest.failf "SUM(qty) requested %.0f bytes of scratch" bytes;
  let db rows = Engine.Db.of_tables (catalog ()) [ ("t", R.create [ "k"; "a"; "b"; "x"; "y" ] rows) ] in
  let row k a x = [| V.Int k; a; V.Null; x; V.Null |] in
  let some =
    db
      [
        row 0 (V.Int 3) (V.Float 1.5); row 1 V.Null V.Null; row 2 (V.Int 3) (V.Float (-0.0));
        row 3 (V.Int (-2)) (V.Float 0.0); row 4 V.Null (V.Float 1.5);
      ]
  in
  let sql =
    "SELECT COUNT(*) AS n, COUNT(a) AS c, SUM(a) AS s, AVG(x) AS ax, MIN(a) AS lo, \
     MAX(x) AS hi, COUNT(DISTINCT a) AS da, SUM(DISTINCT a) AS sa, COUNT(DISTINCT x) AS dx \
     FROM t"
  in
  List.iter
    (fun (what, db) ->
      let g = build (Engine.Db.catalog db) sql in
      let fast = Engine.Exec.run db g and slow = Engine.Reference.run db g in
      if not (R.bag_equal_approx fast slow) then
        Alcotest.failf "%s: vector\n%s\nreference\n%s" what (R.to_string fast)
          (R.to_string slow);
      if what = "empty t" then
        match R.rows_array fast with
        | [| [| V.Int 0; V.Int 0; V.Null; V.Null; V.Null; V.Null; V.Int 0; V.Null; V.Int 0 |] |] -> ()
        | _ -> Alcotest.failf "totals over no rows:\n%s" (R.to_string fast))
    [ ("empty t", db []); ("t with NULLs and repeats", some) ]

let test_counters_exported () =
  let json = Obs.Json.to_string (Obs.Metrics.to_json ~prefix:"exec." ()) in
  let has name =
    let n = String.length name in
    let rec at i = i + n <= String.length json && (String.sub json i n = name || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "exec.scratch_bytes" true (has "exec.scratch_bytes");
  Alcotest.(check bool) "exec.gathered_values" true (has "exec.gathered_values")

let suite =
  [
    QCheck_alcotest.to_alcotest prop_inplace;
    Alcotest.test_case "folded constant raises per row" `Quick test_folded_constant;
    Alcotest.test_case "arithmetic scratch is two buffers" `Quick test_arith_scratch;
    Alcotest.test_case "a filter gathers each column once" `Quick test_filter_gathers;
    Alcotest.test_case "scratch counters exported" `Quick test_counters_exported;
    Alcotest.test_case "a global aggregate needs no group ids" `Quick test_global_aggregate;
  ]
