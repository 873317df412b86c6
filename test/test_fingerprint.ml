(* Canonical QGM fingerprints: what must collide (alpha-equivalent plans)
   and what must not (anything observable: outputs, their order, DISTINCT,
   tables, constants, grouping, presentation). *)

open Helpers
module F = Qgm.Fingerprint

let cat = tiny_catalog ()
let build sql = Qgm.Builder.build cat (Sqlsyn.Parser.parse_query sql)
let fp sql = F.of_graph (build sql)

let same a b () =
  Alcotest.(check string) (a ^ " == " ^ b) (fp a) (fp b)

let diff a b () =
  Alcotest.(check bool) (a ^ " <> " ^ b) true (fp a <> fp b)

let has hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_stable () =
  (* same graph, same digest, and canonical text mentions the base table *)
  let g = build "SELECT k, v FROM fact WHERE v > 1" in
  Alcotest.(check string) "deterministic" (F.of_graph g) (F.of_graph g);
  let c = F.canonical g in
  Alcotest.(check bool) "mentions base table" true (has c "(base fact")

(* The template key: comparison literals in WHERE and HAVING are typed
   slots, every other literal stays, and the exact key still differs. *)
let test_template () =
  let template sql = (F.keys (build sql)).F.template in
  let same_t a b =
    Alcotest.(check string) ("template: " ^ a ^ " == " ^ b) (template a) (template b);
    Alcotest.(check bool) ("exact: " ^ a ^ " <> " ^ b) true (fp a <> fp b)
  in
  let diff_t a b =
    Alcotest.(check bool) ("template: " ^ a ^ " <> " ^ b) true (template a <> template b)
  in
  same_t "SELECT k FROM fact WHERE v > 1" "SELECT k FROM fact WHERE v > 2";
  same_t "SELECT k FROM fact WHERE v BETWEEN 1 AND 5" "SELECT k FROM fact WHERE v BETWEEN 3 AND 4";
  same_t "SELECT k FROM fact WHERE v IN (1, 2)" "SELECT k FROM fact WHERE v IN (7, 3)";
  same_t "SELECT k FROM fact WHERE grp = 'x' OR v = 1" "SELECT k FROM fact WHERE grp = 'y' OR v = 9";
  same_t "SELECT k FROM fact WHERE k = 5 OR v = 1" "SELECT k FROM fact WHERE k = 1 OR v = 5";
  same_t "SELECT k FROM fact WHERE NOT (v < 3)" "SELECT k FROM fact WHERE NOT (v < 4)";
  same_t "SELECT grp, SUM(v) AS s FROM fact GROUP BY grp HAVING SUM(v) > 10"
    "SELECT grp, SUM(v) AS s FROM fact GROUP BY grp HAVING SUM(v) > 20";
  same_t "SELECT k FROM fact WHERE v + 1 > 3" "SELECT k FROM fact WHERE v + 1 > 4";
  (* the slot carries the literal's type *)
  diff_t "SELECT k FROM fact WHERE v > 1" "SELECT k FROM fact WHERE v > 1.5";
  diff_t "SELECT k FROM fact WHERE v = 1" "SELECT k FROM fact WHERE v = NULL";
  (* literals outside a comparison operand stay in the key *)
  diff_t "SELECT k + 1 AS x FROM fact" "SELECT k + 2 AS x FROM fact";
  diff_t "SELECT k FROM fact WHERE v + 1 > 3" "SELECT k FROM fact WHERE v + 2 > 3";
  diff_t "SELECT k FROM fact WHERE k % 2 = 0" "SELECT k FROM fact WHERE k % 3 = 0";
  diff_t "SELECT k FROM fact WHERE v IN (1, 2)" "SELECT k FROM fact WHERE v IN (1, 2, 3)";
  diff_t "SELECT k FROM fact WHERE v > 1 LIMIT 5" "SELECT k FROM fact WHERE v > 1 LIMIT 6";
  diff_t "SELECT k FROM fact WHERE v > 1" "SELECT k FROM fact WHERE v >= 1";
  Alcotest.(check string) "exact key is of_graph"
    (fp "SELECT k FROM fact WHERE v > 1")
    (F.keys (build "SELECT k FROM fact WHERE v > 1")).F.exact

let suite =
  [
    Alcotest.test_case "deterministic" `Quick test_stable;
    Alcotest.test_case "whitespace/case-insensitive" `Quick
      (same "SELECT k, v FROM fact WHERE v > 1"
         "select k,   v from FACT where v > 1");
    Alcotest.test_case "predicate order-insensitive" `Quick
      (same "SELECT k FROM fact WHERE v > 1 AND k < 5"
         "SELECT k FROM fact WHERE k < 5 AND v > 1");
    Alcotest.test_case "alias-insensitive" `Quick
      (same "SELECT f.k FROM fact f" "SELECT g2.k FROM fact g2");
    Alcotest.test_case "join order insensitive predicates" `Quick
      (same "SELECT k FROM fact WHERE v = 1 AND grp = 'a'"
         "SELECT k FROM fact WHERE grp = 'a' AND v = 1");
    Alcotest.test_case "output order matters" `Quick
      (diff "SELECT k, v FROM fact" "SELECT v, k FROM fact");
    Alcotest.test_case "distinct matters" `Quick
      (diff "SELECT grp FROM fact" "SELECT DISTINCT grp FROM fact");
    Alcotest.test_case "DISTINCT is a key-only GROUP BY" `Quick
      (same "SELECT DISTINCT grp FROM fact" "SELECT grp FROM fact GROUP BY grp");
    Alcotest.test_case "table matters" `Quick
      (diff "SELECT id FROM dims" "SELECT k FROM fact");
    Alcotest.test_case "constant matters" `Quick
      (diff "SELECT k FROM fact WHERE v > 1" "SELECT k FROM fact WHERE v > 2");
    Alcotest.test_case "grouping matters" `Quick
      (diff "SELECT grp, COUNT(*) AS c FROM fact GROUP BY grp"
         "SELECT grp, COUNT(*) AS c FROM fact GROUP BY grp, v");
    Alcotest.test_case "presentation matters" `Quick
      (diff "SELECT k FROM fact ORDER BY k" "SELECT k FROM fact ORDER BY k DESC");
    Alcotest.test_case "limit matters" `Quick
      (diff "SELECT k FROM fact LIMIT 5" "SELECT k FROM fact LIMIT 6");
    Alcotest.test_case "template key abstracts comparison literals" `Quick
      test_template;
  ]
