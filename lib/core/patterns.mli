(** The match function (paper sections 3, 4 and 5).

    Decides whether a subsumee box (query graph) matches a subsumer box
    (AST graph) and, when it does, returns the compensation together with
    its static certificate: [Prove.Proved] when the rewrite region is
    provably the query's, else [Unknown] with the reason. Memoized per pair
    inside the {!Mctx.t}, one answer per pair; judging a pair recursively
    judges all child pair combinations first, which realizes the
    navigator's bottom-up discipline.

    Pattern coverage: base-table leaves; SELECT/SELECT with exact (4.1.1),
    SELECT-only (4.2.3) and grouping (4.2.4) child compensation;
    GROUP-BY/GROUP-BY with exact (4.1.2), SELECT-only (4.2.1) and GROUP-BY
    (4.2.2, recursive) child compensation; simple and cube queries against
    cube ASTs (5.1, 5.2). SELECT DISTINCT and UNION are built as key-only
    GROUP BYs, so footnote 2's DISTINCT/GROUP BY cases fall under 4.1.2
    and 4.2. Deliberate rejections are listed in DESIGN.md. *)

val match_boxes :
  Mctx.t ->
  Qgm.Box.box_id ->
  Qgm.Box.box_id ->
  (Mtypes.result * Prove.status) option
