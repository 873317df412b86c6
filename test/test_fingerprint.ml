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
  ]
