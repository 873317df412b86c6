(* SQL value semantics: three-valued logic, numeric promotion, dates,
   ordering/hashing coherence. *)

module V = Data.Value

let check_v = Alcotest.(check string)
let vs v = V.to_string v

let test_3vl_comparisons () =
  check_v "null = x is null" "NULL" (vs (V.sql_eq V.Null (V.Int 1)));
  check_v "x = null is null" "NULL" (vs (V.sql_eq (V.Int 1) V.Null));
  check_v "1 = 1" "TRUE" (vs (V.sql_eq (V.Int 1) (V.Int 1)));
  check_v "1 = 1.0 numeric" "TRUE" (vs (V.sql_eq (V.Int 1) (V.Float 1.0)));
  check_v "1 < 2" "TRUE" (vs (V.sql_lt (V.Int 1) (V.Int 2)));
  check_v "2 <= 2" "TRUE" (vs (V.sql_le (V.Int 2) (V.Int 2)));
  check_v "'a' <> 'b'" "TRUE" (vs (V.sql_neq (V.Str "a") (V.Str "b")))

let test_kleene_logic () =
  let t = V.Bool true and f = V.Bool false and n = V.Null in
  check_v "T and N" "NULL" (vs (V.sql_and t n));
  check_v "F and N" "FALSE" (vs (V.sql_and f n));
  check_v "N and F" "FALSE" (vs (V.sql_and n f));
  check_v "T or N" "TRUE" (vs (V.sql_or t n));
  check_v "N or T" "TRUE" (vs (V.sql_or n t));
  check_v "F or N" "NULL" (vs (V.sql_or f n));
  check_v "not N" "NULL" (vs (V.sql_not n));
  check_v "not T" "FALSE" (vs (V.sql_not t))

let test_arithmetic () =
  check_v "int add" "3" (vs (V.add (V.Int 1) (V.Int 2)));
  check_v "promotion" "3.5" (vs (V.add (V.Int 1) (V.Float 2.5)));
  check_v "null propagates" "NULL" (vs (V.add V.Null (V.Int 2)));
  check_v "int division truncates" "2" (vs (V.div (V.Int 5) (V.Int 2)));
  check_v "float division" "2.5" (vs (V.div (V.Float 5.0) (V.Int 2)));
  check_v "negation" "-4" (vs (V.neg (V.Int 4)));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (V.div (V.Int 1) (V.Int 0)));
  Alcotest.check_raises "type error"
    (V.Type_error "+ applied to non-numeric value") (fun () ->
      ignore (V.add (V.Str "a") (V.Int 1)))

let test_dates () =
  let dt = V.date 1994 7 15 in
  check_v "date text" "1994-07-15" (vs dt);
  check_v "year" "1994" (vs (V.year dt));
  check_v "month" "7" (vs (V.month dt));
  check_v "day" "15" (vs (V.day dt));
  check_v "year of null" "NULL" (vs (V.year V.Null));
  Alcotest.check_raises "bad month"
    (Invalid_argument "Value.date: month out of range") (fun () ->
      ignore (V.date 1994 13 1));
  Alcotest.check_raises "bad day"
    (Invalid_argument "Value.date: day out of range") (fun () ->
      ignore (V.date 1994 1 0))

let test_order_and_hash () =
  Alcotest.(check int) "null first" (-1)
    (compare (V.compare V.Null (V.Int 0)) 0);
  Alcotest.(check int) "numeric cross-type equal" 0
    (V.compare (V.Int 3) (V.Float 3.0));
  Alcotest.(check bool) "equal implies same hash" true
    (V.hash (V.Int 3) = V.hash (V.Float 3.0));
  Alcotest.(check int) "signed zeros compare equal" 0
    (V.compare (V.Float (-0.0)) (V.Float 0.0));
  Alcotest.(check bool) "signed zeros hash equally" true
    (V.hash (V.Float (-0.0)) = V.hash (V.Float 0.0)
    && V.hash (V.Float (-0.0)) = V.hash (V.Int 0));
  let nan2 = Int64.float_of_bits 0x7ff0000000000001L in
  Alcotest.(check int) "NaNs compare equal" 0
    (V.compare (V.Float Float.nan) (V.Float nan2));
  Alcotest.(check bool) "every NaN hashes equally" true
    (V.hash (V.Float Float.nan) = V.hash (V.Float nan2)
    && V.hash (V.Float Float.nan) = V.hash (V.Float (-.Float.nan)));
  (* hashing must not allocate: the boxed-key fallback and the generic
     join hash every key column of every row *)
  let vals = [| V.Int 7; V.Float 2.5; V.Date 19940102; V.Bool true; V.Null |] in
  let before = Gc.minor_words () in
  let acc = ref 0 in
  for k = 0 to 9_999 do
    acc := !acc lxor V.hash vals.(k mod Array.length vals)
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !acc);
  Alcotest.(check bool) "hash allocates nothing" true (words < 100.);
  Alcotest.(check bool) "dates ordered" true
    (V.compare (V.date 1994 1 2) (V.date 1994 1 10) < 0)

let test_concat () =
  check_v "concat" "ab" (vs (V.concat (V.Str "a") (V.Str "b")));
  check_v "concat null" "NULL" (vs (V.concat (V.Str "a") V.Null))

let test_is_true () =
  Alcotest.(check bool) "true passes" true (V.is_true (V.Bool true));
  Alcotest.(check bool) "null fails" false (V.is_true V.Null);
  Alcotest.(check bool) "false fails" false (V.is_true (V.Bool false));
  Alcotest.(check bool) "non-bool fails" false (V.is_true (V.Int 1))

(* properties *)
let arb_value =
  QCheck.(
    oneof
      [
        always Data.Value.Null;
        map (fun n -> Data.Value.Int n) small_signed_int;
        map (fun x -> Data.Value.Float x) (float_range (-1e6) 1e6);
        (* values whose equality caml_hash used to normalize: integral
           floats (equal to an Int), signed zeros and NaN payloads *)
        map (fun n -> Data.Value.Float (float_of_int n)) small_signed_int;
        oneofl
          [
            Data.Value.Float 0.0;
            Data.Value.Float (-0.0);
            Data.Value.Float Float.nan;
            Data.Value.Float (-.Float.nan);
            Data.Value.Float (Int64.float_of_bits 0x7ff0000000000001L);
          ];
        map (fun s -> Data.Value.Str s) (string_of_size (Gen.return 3));
        map (fun b -> Data.Value.Bool b) bool;
        map
          (fun (y, m, d) -> Data.Value.date (1990 + y) (1 + m) (1 + d))
          (triple (int_bound 20) (int_bound 11) (int_bound 27));
      ])

let prop_compare_total =
  QCheck.Test.make ~name:"compare is antisymmetric"
    QCheck.(pair arb_value arb_value)
    (fun (a, b) ->
      let c1 = V.compare a b and c2 = V.compare b a in
      (c1 = 0 && c2 = 0) || (c1 > 0 && c2 < 0) || (c1 < 0 && c2 > 0))

let prop_compare_transitive =
  QCheck.Test.make ~name:"compare is transitive"
    QCheck.(triple arb_value arb_value arb_value)
    (fun (a, b, c) ->
      let ( <= ) x y = V.compare x y <= 0 in
      if a <= b && b <= c then a <= c else true)

let prop_equal_hash =
  QCheck.Test.make ~name:"equal values hash equally"
    QCheck.(pair arb_value arb_value)
    (fun (a, b) -> (not (V.equal a b)) || V.hash a = V.hash b)

let prop_eq_symmetric =
  QCheck.Test.make ~name:"sql_eq is symmetric"
    QCheck.(pair arb_value arb_value)
    (fun (a, b) -> V.sql_eq a b = V.sql_eq b a)

let suite =
  [
    Alcotest.test_case "3vl comparisons" `Quick test_3vl_comparisons;
    Alcotest.test_case "kleene logic" `Quick test_kleene_logic;
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "dates" `Quick test_dates;
    Alcotest.test_case "order and hash" `Quick test_order_and_hash;
    Alcotest.test_case "concat" `Quick test_concat;
    Alcotest.test_case "is_true" `Quick test_is_true;
    QCheck_alcotest.to_alcotest prop_compare_total;
    QCheck_alcotest.to_alcotest prop_compare_transitive;
    QCheck_alcotest.to_alcotest prop_equal_hash;
    QCheck_alcotest.to_alcotest prop_eq_symmetric;
  ]
