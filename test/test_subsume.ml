(* Predicate subsumption (paper footnote 4: x > 10 subsumes x > 20),
   decided by the static prover on single-predicate conjunctions — the
   question condition 2 of the matcher asks. *)

module E = Qgm.Expr
module V = Data.Value

let x = E.Col "x"
let c n = E.Const (V.Int n)
let gt e k = E.Binop (">", e, c k)
let ge e k = E.Binop (">=", e, c k)
let lt e k = E.Binop ("<", e, c k)
let le e k = E.Binop ("<=", e, c k)

let subsumes ~ty ~weak ~strong =
  Prove.is_proved
    (Prove.subsumed ~ty:(Prove.key_ty ~col:ty) ~weak:[ weak ] ~strong:[ strong ])

let check msg expected weak strong =
  Alcotest.(check bool) msg expected (subsumes ~ty:Prove.no_ty ~weak ~strong)

(* the oracle an integer-typed (or date-typed) column provides *)
let int_ty _ = Some V.Tint
let date_ty _ = Some V.Tdate

let check_ty ty msg expected weak strong =
  Alcotest.(check bool) msg expected (subsumes ~ty ~weak ~strong)

let test_equal () =
  check "identical" true (gt x 10) (gt x 10);
  check "normalized equal" true (gt x 10) (E.Binop ("<", c 10, x))

let test_lower_bounds () =
  check "x>10 subsumes x>20" true (gt x 10) (gt x 20);
  check "x>20 does not subsume x>10" false (gt x 20) (gt x 10);
  check "x>=10 subsumes x>10" true (ge x 10) (gt x 10);
  check "x>10 does not subsume x>=10" false (gt x 10) (ge x 10);
  check "x>=10 subsumes x>=11" true (ge x 10) (ge x 11)

let test_upper_bounds () =
  check "x<20 subsumes x<10" true (lt x 20) (lt x 10);
  check "x<10 does not subsume x<20" false (lt x 10) (lt x 20);
  check "x<=10 subsumes x<10" true (le x 10) (lt x 10);
  check "x<10 does not subsume x<=10" false (lt x 10) (le x 10)

let test_different_exprs () =
  check "different column" false (gt x 10) (gt (E.Col "y") 20);
  check "mixed direction" false (gt x 10) (lt x 20);
  check "unrelated shapes" false (E.Is_null (x, true)) (gt x 10)

let test_float_bounds () =
  check "float relax" true
    (E.Binop (">", x, E.Const (V.Float 0.05)))
    (E.Binop (">", x, E.Const (V.Float 0.1)))

let test_complex_lhs () =
  let e = E.Binop ("*", E.Col "a", E.Col "b") in
  check "expression bound" true (gt e 1) (gt e 5);
  check "commuted expression" true (gt (E.Binop ("*", E.Col "b", E.Col "a")) 1) (gt e 5)

(* On an integer-typed column, strict and non-strict bounds on adjacent
   points denote the same set: x > 9 is x >= 10. Untyped or float-typed
   columns must NOT be related this way (there are reals in (9, 10)). *)
let test_integer_bounds () =
  check_ty int_ty "x>9 subsumes x>=10 (int)" true (gt x 9) (ge x 10);
  check_ty int_ty "x>=10 subsumes x>9 (int)" true (ge x 10) (gt x 9);
  check_ty int_ty "x<10 subsumes x<=9 (int)" true (lt x 10) (le x 9);
  check_ty int_ty "x<=9 subsumes x<10 (int)" true (le x 9) (lt x 10);
  check_ty int_ty "x>9 subsumes x>=11" true (gt x 9) (ge x 11);
  check_ty int_ty "x>=11 does not subsume x>9" false (ge x 11) (gt x 9);
  (* x>9 subsumes x>=10 for ANY type (9 < 10); only the converse needs
     discreteness — untyped or dense, it must not be assumed *)
  check "x>9 subsumes x>=10 untyped" true (gt x 9) (ge x 10);
  check "x>=10 does not subsume x>9 untyped" false (ge x 10) (gt x 9);
  check_ty (fun _ -> Some V.Tfloat) "x>=10 does not subsume x>9 (float)"
    false (ge x 10) (gt x 9);
  (* int-typed column with a FLOAT literal bound: the discrete successor
     is undefined for a non-Int constant, so normalization must not fire *)
  check_ty int_ty "float literal on int column stays strict" false
    (E.Binop (">=", x, E.Const (V.Int 10)))
    (E.Binop (">", x, E.Const (V.Float 9.0)))

let test_date_bounds () =
  let d y m dd = E.Const (V.Date (((y * 100) + m) * 100 + dd)) in
  let gtd e c = E.Binop (">", e, c) and ged e c = E.Binop (">=", e, c) in
  check_ty date_ty "d>1999-12-31 subsumes d>=2000-01-01 (rollover)" true
    (gtd x (d 1999 12 31))
    (ged x (d 2000 01 01));
  check_ty date_ty "d>=2000-01-01 subsumes d>1999-12-31 (rollover)" true
    (ged x (d 2000 01 01))
    (gtd x (d 1999 12 31));
  check_ty date_ty "mid-month adjacency" true
    (gtd x (d 2020 06 14))
    (ged x (d 2020 06 15));
  check_ty date_ty "non-adjacent dates unrelated" false
    (ged x (d 2020 06 16))
    (gtd x (d 2020 06 14))

let suite =
  [
    Alcotest.test_case "equal predicates" `Quick test_equal;
    Alcotest.test_case "lower bounds" `Quick test_lower_bounds;
    Alcotest.test_case "upper bounds" `Quick test_upper_bounds;
    Alcotest.test_case "different expressions" `Quick test_different_exprs;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "complex expressions" `Quick test_complex_lhs;
    Alcotest.test_case "integer bound adjacency" `Quick test_integer_bounds;
    Alcotest.test_case "date bound adjacency" `Quick test_date_bounds;
  ]
