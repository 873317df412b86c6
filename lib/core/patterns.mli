(** The match function (paper sections 3, 4 and 5).

    Decides whether a subsumee box (query graph) matches a subsumer box
    (AST graph) and, when it does, produces the compensation. Memoized per
    pair inside the {!Mctx.t}; judging a pair recursively judges all child
    pair combinations first, which realizes the navigator's bottom-up
    discipline.

    Pattern coverage: base-table leaves; SELECT/SELECT with exact (4.1.1),
    SELECT-only (4.2.3) and grouping (4.2.4) child compensation;
    GROUP-BY/GROUP-BY with exact (4.1.2), SELECT-only (4.2.1) and GROUP-BY
    (4.2.2, recursive) child compensation; simple and cube queries against
    cube ASTs (5.1, 5.2); and the footnote-2 DISTINCT/GROUP BY
    cross-matches. Deliberate rejections are listed in DESIGN.md. *)

val match_boxes :
  Mctx.t -> Qgm.Box.box_id -> Qgm.Box.box_id -> Mtypes.result option
