(* Static predicate prover.

   Three layers of evidence:
     - hand-built cases for the abstract domain (open/closed bounds, NULL
       semantics, discrete INT/DATE adjacency, mixed INT/FLOAT literals,
       equivalence-class transfer, partition certificates);
     - a seeded differential property test: random predicate pairs are
       judged by the prover AND evaluated on random rows; every [Proved]
       verdict must agree with the observed truth (the prover may say
       Unknown whenever it likes — it may never say Proved wrongly);
     - an end-to-end session test of [verify:Static] (certified rewrites
       skip the runtime re-execution, uncertified ones do not). *)

module P = Prove
module D = Prove.Domain
module E = Qgm.Expr
module V = Data.Value
module Sess = Mvstore.Session
module R = Data.Relation

let proved = function P.Proved -> true | P.Unknown _ -> false

let check_proved msg expected status =
  Alcotest.(check bool) msg expected (proved status)

(* ---------------- abstract domain ---------------- *)

let ge_i n = D.of_range ~ty:V.Tint (D.B (V.Int n, D.Closed)) D.Pos_inf
let gt_i n = D.of_range ~ty:V.Tint (D.B (V.Int n, D.Open)) D.Pos_inf
let le_i n = D.of_range ~ty:V.Tint D.Neg_inf (D.B (V.Int n, D.Closed))
let lt_i n = D.of_range ~ty:V.Tint D.Neg_inf (D.B (V.Int n, D.Open))

let test_domain_discrete () =
  (* x > 9 and x >= 10 are the same set of integers *)
  Alcotest.(check bool) "gt 9 <= ge 10" true (D.le (gt_i 9) (ge_i 10));
  Alcotest.(check bool) "ge 10 <= gt 9" true (D.le (ge_i 10) (gt_i 9));
  Alcotest.(check bool) "lt 10 <= le 9" true (D.le (lt_i 10) (le_i 9));
  (* without a type the open bound stays open *)
  let gt9_untyped = D.of_range (D.B (V.Int 9, D.Open)) D.Pos_inf in
  Alcotest.(check bool) "untyped gt 9 not <= ge 10" false
    (D.le gt9_untyped (ge_i 10));
  (* the typed direction is still fine: [10, inf) is inside (9, inf) *)
  Alcotest.(check bool) "ge 10 <= untyped gt 9" true
    (D.le (ge_i 10) gt9_untyped);
  (* a FLOAT literal on an INT-typed range must not be "discretized" *)
  let gt_f = D.of_range ~ty:V.Tint (D.B (V.Float 9.5, D.Open)) D.Pos_inf in
  Alcotest.(check bool) "float bound stays open" false
    (D.le gt_f (ge_i 10))

let test_domain_meet_disjoint () =
  Alcotest.(check bool) "lt 5 disjoint gt 10" true
    (D.disjoint (lt_i 5) (gt_i 10));
  Alcotest.(check bool) "lt 5 disjoint ge 5" true
    (D.disjoint (lt_i 5) (ge_i 5));
  Alcotest.(check bool) "le 5 overlaps ge 5" false
    (D.disjoint (le_i 5) (ge_i 5));
  Alcotest.(check bool) "meet empty -> is_empty" true
    (D.is_empty (D.meet (lt_i 5) (gt_i 10)));
  (* NULL is outside every range: null_only vs a range is disjoint *)
  Alcotest.(check bool) "null_only disjoint range" true
    (D.disjoint D.null_only (ge_i 0));
  Alcotest.(check bool) "null_only disjoint not_null" true
    (D.disjoint D.null_only D.not_null)

let test_domain_covers () =
  (* x <= 9 union x >= 10 covers every integer *)
  Alcotest.(check bool) "discrete adjacency covers" true
    (D.covers_all ~ty:V.Tint ~nullable:false (le_i 9) (ge_i 10));
  Alcotest.(check bool) "touching closed bound covers" true
    (D.covers_all ~ty:V.Tint ~nullable:false (le_i 10) (ge_i 10));
  Alcotest.(check bool) "strict gap does not cover" false
    (D.covers_all ~ty:V.Tint ~nullable:false (lt_i 10) (gt_i 10));
  Alcotest.(check bool) "int gap does not cover" false
    (D.covers_all ~ty:V.Tint ~nullable:false (le_i 9) (ge_i 11));
  (* a nullable pivot column leaves the NULL row uncovered *)
  Alcotest.(check bool) "nullable pivot not covered" false
    (D.covers_all ~ty:V.Tint ~nullable:true (le_i 9) (ge_i 10));
  (* dense type: open/open adjacency leaves the point out *)
  let lt_f = D.of_range D.Neg_inf (D.B (V.Float 1.0, D.Open)) in
  let gt_f = D.of_range (D.B (V.Float 1.0, D.Open)) D.Pos_inf in
  let ge_f = D.of_range (D.B (V.Float 1.0, D.Closed)) D.Pos_inf in
  Alcotest.(check bool) "float open/open gap" false
    (D.covers_all ~nullable:false lt_f gt_f);
  Alcotest.(check bool) "float open/closed covers" true
    (D.covers_all ~nullable:false lt_f ge_f)

(* ---------------- verdicts on hand-built predicates ---------------- *)

let col c = E.Col c
let ci n = E.Const (V.Int n)
let band a b = E.Binop ("AND", a, b)
let bor a b = E.Binop ("OR", a, b)
let cmp op a b = E.Binop (op, a, b)

let int_cols = [ ("price", V.Tint); ("qty", V.Tint) ]
let ty = P.key_ty ~col:(fun c -> List.assoc_opt c int_cols)

let test_subsumed_between () =
  (* the motivating case: BETWEEN 10 AND 50 inside (5, 100) *)
  let weak = band (cmp ">" (col "price") (ci 5)) (cmp "<" (col "price") (ci 100)) in
  let strong =
    band (cmp ">=" (col "price") (ci 10)) (cmp "<=" (col "price") (ci 50))
  in
  check_proved "between inside open range" true
    (P.subsumed ~ty ~weak:[ weak ] ~strong:[ strong ]);
  check_proved "not the converse" false
    (P.subsumed ~ty ~weak:[ strong ] ~strong:[ weak ]);
  (* an equality inside a range *)
  check_proved "equality inside range" true
    (P.subsumed ~ty
       ~weak:[ cmp "<" (col "price") (ci 100) ]
       ~strong:[ cmp "=" (col "price") (ci 42) ]);
  (* vacuous: unsatisfiable strong side proves anything *)
  check_proved "unsat strong is vacuous" true
    (P.subsumed ~ty
       ~weak:[ cmp "=" (col "qty") (ci 1) ]
       ~strong:
         [ cmp ">" (col "price") (ci 10); cmp "<" (col "price") (ci 5) ])

let test_unsat_disjoint () =
  check_proved "contradictory bounds" true
    (P.unsat ~ty [ cmp ">" (col "price") (ci 10); cmp "<" (col "price") (ci 5) ]);
  check_proved "int gap closes under discreteness" true
    (P.unsat ~ty [ cmp ">" (col "price") (ci 4); cmp "<" (col "price") (ci 5) ]);
  check_proved "satisfiable stays unknown" false
    (P.unsat ~ty [ cmp ">" (col "price") (ci 4) ]);
  check_proved "IS NULL vs range" true
    (P.disjoint ~ty
       [ E.Is_null (col "price", true) ]
       [ cmp ">" (col "price") (ci 0) ]);
  check_proved "split ranges disjoint" true
    (P.disjoint ~ty
       [ cmp "<" (col "price") (ci 10) ]
       [ cmp ">=" (col "price") (ci 10) ]);
  check_proved "overlap not disjoint" false
    (P.disjoint ~ty
       [ cmp "<" (col "price") (ci 10) ]
       [ cmp ">" (col "price") (ci 0) ])

let test_or_hull_soundness () =
  (* the OR of two ranges collapses to a hull: usable as a HAVE, never as
     a NEED. weak = (p<2 OR p>8) must NOT be proved from strong = p>=0,
     even though the hull of weak contains [0, inf). *)
  let weak = bor (cmp "<" (col "price") (ci 2)) (cmp ">" (col "price") (ci 8)) in
  check_proved "inexact need is refused" false
    (P.subsumed ~ty ~weak:[ weak ] ~strong:[ cmp ">=" (col "price") (ci 0) ]);
  (* ... but the same OR is fine as the strong side *)
  check_proved "hull on the have side" true
    (P.subsumed ~ty ~weak:[ cmp ">=" (col "price") (ci 0) ]
       ~strong:[ bor (cmp "=" (col "price") (ci 2)) (cmp "=" (col "price") (ci 8)) ]);
  (* enum ORs stay exact in both roles *)
  check_proved "enum or as need" true
    (P.subsumed ~ty
       ~weak:[ bor (cmp "=" (col "price") (ci 2)) (cmp "=" (col "price") (ci 8)) ]
       ~strong:[ cmp "=" (col "price") (ci 8) ])

let test_equiv_transfer () =
  (* a = b together with b > 10 entails a > 5 once both sides are
     canonicalized through the equivalence classes, exactly as the matcher
     does before asking the prover *)
  let a = col "a" and b = col "b" in
  let preds = [ E.Binop ("=", a, b); cmp ">" b (ci 10) ] in
  let eq = Astmatch.Equiv.of_preds preds in
  let canon e = Astmatch.Equiv.canon eq e in
  check_proved "entailment across the class" true
    (P.subsumed ~ty:P.no_ty
       ~weak:[ canon (cmp ">" a (ci 5)) ]
       ~strong:(List.map canon preds));
  (* without canonicalization the columns do not line up *)
  check_proved "no transfer without canon" false
    (P.subsumed ~ty:P.no_ty ~weak:[ cmp ">" a (ci 5) ] ~strong:preds)

(* ---------------- differential property test ---------------- *)

let cols = [ ("x", V.Tint); ("y", V.Tfloat); ("s", V.Tstr); ("d", V.Tdate) ]
let diff_ty = P.key_ty ~col:(fun c -> List.assoc_opt c cols)

let rand_const st ty =
  match ty with
  | V.Tint -> V.Int (Random.State.int st 6)
  | V.Tfloat -> V.Float (float_of_int (Random.State.int st 8) /. 2.)
  | V.Tstr -> V.Str (List.nth [ "a"; "b"; "c" ] (Random.State.int st 3))
  | V.Tdate ->
      (* cluster around a month boundary so rollover adjacency is hit *)
      V.date 2020
        (1 + Random.State.int st 2)
        (List.nth [ 1; 2; 28; 30; 31 ] (Random.State.int st 5))
  | V.Tbool -> V.Bool (Random.State.bool st)

let rand_atom st =
  let name, ty = List.nth cols (Random.State.int st (List.length cols)) in
  let c = col name in
  match Random.State.int st 9 with
  | 0 -> E.Is_null (c, true)
  | 1 -> E.Is_null (c, false)
  | n ->
      let op = List.nth [ "<"; "<="; ">"; ">="; "="; "<>"; "=" ] (n - 2) in
      (* sometimes a float literal lands on the int column (and vice
         versa) — the prover must stay sound under mixed numerics *)
      let lit_ty =
        if ty = V.Tint && Random.State.int st 5 = 0 then V.Tfloat
        else if ty = V.Tfloat && Random.State.int st 5 = 0 then V.Tint
        else ty
      in
      E.Binop (op, c, E.Const (rand_const st lit_ty))

let rand_preds st =
  List.init
    (1 + Random.State.int st 3)
    (fun _ ->
      if Random.State.int st 4 = 0 then bor (rand_atom st) (rand_atom st)
      else rand_atom st)

let rand_row st =
  List.map
    (fun (n, ty) ->
      (n, if Random.State.int st 5 = 0 then V.Null else rand_const st ty))
    cols

let sat row preds =
  List.for_all
    (fun p -> Engine.Eval.is_satisfied (fun c -> List.assoc c row) p)
    preds

let test_differential () =
  let st = Random.State.make [| 0xA57; 0x9607 |] in
  let fail_at trial what a b =
    Alcotest.failf "trial %d: unsound %s verdict on %s | %s" trial what
      (String.concat " AND " (List.map (E.to_string Fun.id) a))
      (String.concat " AND " (List.map (E.to_string Fun.id) b))
  in
  for trial = 1 to 500 do
    let a = rand_preds st and b = rand_preds st in
    let rows = List.init 80 (fun _ -> rand_row st) in
    (match P.subsumed ~ty:diff_ty ~weak:a ~strong:b with
    | P.Proved ->
        List.iter
          (fun r ->
            if sat r b && not (sat r a) then fail_at trial "subsumed" a b)
          rows
    | P.Unknown _ -> ());
    (match P.disjoint ~ty:diff_ty a b with
    | P.Proved ->
        List.iter
          (fun r -> if sat r a && sat r b then fail_at trial "disjoint" a b)
          rows
    | P.Unknown _ -> ());
    match P.unsat ~ty:diff_ty a with
    | P.Proved ->
        List.iter (fun r -> if sat r a then fail_at trial "unsat" a []) rows
    | P.Unknown _ -> ()
  done

(* ---------------- partition certificates ---------------- *)

let test_partition () =
  let cat = Helpers.tiny_catalog () in
  let g sql = Helpers.build cat sql in
  (* k is INT NOT NULL: a strict/non-strict split partitions the domain *)
  let cert =
    P.partition ~cat
      (g "SELECT k, grp FROM fact WHERE k < 10")
      (g "SELECT k, grp FROM fact WHERE k >= 10")
  in
  check_proved "clean split" true cert.P.pc_status;
  Alcotest.(check (option string)) "pivot column" (Some "fact.k")
    cert.P.pc_column;
  (* discrete adjacency: k <= 9 / k >= 10 *)
  check_proved "discrete adjacency split" true
    (P.partition ~cat
       (g "SELECT k FROM fact WHERE k <= 9")
       (g "SELECT k FROM fact WHERE k >= 10"))
      .P.pc_status;
  (* a gap is disjoint but not covering *)
  check_proved "gap is not a partition" false
    (P.partition ~cat
       (g "SELECT k FROM fact WHERE k < 9")
       (g "SELECT k FROM fact WHERE k > 9"))
      .P.pc_status;
  (* overlap is not even disjoint *)
  check_proved "overlap is not a partition" false
    (P.partition ~cat
       (g "SELECT k FROM fact WHERE k < 10")
       (g "SELECT k FROM fact WHERE k >= 5"))
      .P.pc_status;
  (* v is nullable: the NULL row falls through both sides *)
  check_proved "nullable pivot is not a partition" false
    (P.partition ~cat
       (g "SELECT k, v FROM fact WHERE v < 10")
       (g "SELECT k, v FROM fact WHERE v >= 10"))
      .P.pc_status;
  (* different footprints never partition *)
  check_proved "footprint mismatch" false
    (P.partition ~cat
       (g "SELECT k FROM fact WHERE k < 10")
       (g "SELECT id FROM dims WHERE id >= 10"))
      .P.pc_status

(* ---------------- end-to-end: verify:Static ---------------- *)

let script session sql = ignore (Sess.exec_sql session sql)

let static () = { (Sess.default_config ()) with verify = Sess.Static }

let setup_grouped () =
  let sn = Sess.create ~config:(static ()) () in
  script sn
    "CREATE TABLE t (g INT NOT NULL, v INT NOT NULL); \
     INSERT INTO t VALUES (1, 10), (1, 20), (2, 5); \
     CREATE SUMMARY TABLE m AS SELECT g, SUM(v) AS s, COUNT(*) AS c FROM t \
     GROUP BY g;";
  sn

let test_static_verify_skips () =
  let sn = setup_grouped () in
  let q = Sqlsyn.Parser.parse_query "SELECT g, SUM(v) AS s FROM t GROUP BY g" in
  let runs0 = Helpers.counter "guard.verify_runs"
  and skips0 = Helpers.counter "prove.verify_skips" in
  let rel, steps = Sess.run_query sn q in
  Alcotest.(check bool) "rewritten" true (steps <> []);
  check_proved "plan certified" true (Astmatch.Rewrite.steps_proof steps);
  Alcotest.(check int) "no runtime verification" runs0
    (Helpers.counter "guard.verify_runs");
  Alcotest.(check int) "one static skip" (skips0 + 1)
    (Helpers.counter "prove.verify_skips");
  (* the served answer is still right *)
  let direct, _ = Sess.run_query ~config:(Helpers.base_only sn) sn q in
  Alcotest.(check bool) "bag-equal" true (R.bag_equal_approx rel direct)

let test_static_verify_falls_back () =
  (* a cube slice is not certified (its synthesized IS NULL predicates lie
     outside the certificate), so Static behaves like Always *)
  let sn = Sess.create ~config:(static ()) () in
  let rows =
    List.init 300 (fun i -> Printf.sprintf "(%d, %d, %d)" (i mod 7) (i mod 11) i)
  in
  script sn
    ("CREATE TABLE t (g INT NOT NULL, h INT NOT NULL, v INT NOT NULL); \
      INSERT INTO t VALUES " ^ String.concat ", " rows ^ "; \
      CREATE SUMMARY TABLE m AS SELECT g, h, SUM(v) AS s, COUNT(*) AS c \
      FROM t GROUP BY CUBE(g, h);");
  let q = Sqlsyn.Parser.parse_query "SELECT g, SUM(v) AS s FROM t GROUP BY g" in
  let runs0 = Helpers.counter "guard.verify_runs"
  and skips0 = Helpers.counter "prove.verify_skips" in
  let _, steps = Sess.run_query sn q in
  Alcotest.(check bool) "still rewritten" true (steps <> []);
  check_proved "not certified" false (Astmatch.Rewrite.steps_proof steps);
  Alcotest.(check int) "runtime verification ran" (runs0 + 1)
    (Helpers.counter "guard.verify_runs");
  Alcotest.(check int) "no static skip" skips0
    (Helpers.counter "prove.verify_skips")

let test_explain_proved_line () =
  let sn = setup_grouped () in
  match
    Sess.exec_sql sn "EXPLAIN REWRITE SELECT g, SUM(v) AS s FROM t GROUP BY g;"
  with
  | [ Sess.Plan p ] ->
      let has needle =
        let n = String.length needle and h = String.length p in
        let rec go i = i + n <= h && (String.sub p i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "proved line" true (has "proved: yes")
  | _ -> Alcotest.fail "expected a plan"

let suite =
  [
    Alcotest.test_case "domain: discrete bounds" `Quick test_domain_discrete;
    Alcotest.test_case "domain: meet and disjoint" `Quick test_domain_meet_disjoint;
    Alcotest.test_case "domain: coverage" `Quick test_domain_covers;
    Alcotest.test_case "subsumed: ranges" `Quick test_subsumed_between;
    Alcotest.test_case "unsat and disjoint" `Quick test_unsat_disjoint;
    Alcotest.test_case "or-hull soundness" `Quick test_or_hull_soundness;
    Alcotest.test_case "equivalence transfer" `Quick test_equiv_transfer;
    Alcotest.test_case "differential soundness" `Quick test_differential;
    Alcotest.test_case "partition certificates" `Quick test_partition;
    Alcotest.test_case "verify:Static skips proved plans" `Quick
      test_static_verify_skips;
    Alcotest.test_case "verify:Static verifies unproved plans" `Quick
      test_static_verify_falls_back;
    Alcotest.test_case "EXPLAIN proved line" `Quick test_explain_proved_line;
  ]
