(** Vectorized (batch-at-a-time) QGM operators (DESIGN.md §15).

    Each operator consumes and produces {!Column.batch} values; the
    dispatcher in {!Exec} runs every box of a plan through them. Shapes
    without a typed kernel (CASE expressions, DISTINCT aggregates, UNION
    bodies) run on boxed values inside the same operators. *)

exception Error of string

(** Scan a base table through the columnar decode cache, projected to the
    box's columns. Raises [Not_found] on a missing column, like
    [Relation.project]. *)
val exec_base : Db.t -> Qgm.Box.base_body -> Column.batch

(** [exec_select ~child body] — filters, incremental hash joins, output
    projection, DISTINCT. [child] resolves a quantifier to its input
    batch. Output row order is deterministic: left-major joins,
    build-side order within a probe match. *)
val exec_select :
  child:(Qgm.Box.quant -> Column.batch) -> Qgm.Box.select_body -> Column.batch

(** [exec_group ~child body] — dense group ids in first-seen order, then
    typed per-aggregate folds (DISTINCT aggregates first mask repeated
    values per group); grouping-set cuboids are concatenated in
    declaration order with NULL-padded union columns. *)
val exec_group :
  child:(Qgm.Box.quant -> Column.batch) -> Qgm.Box.group_body -> Column.batch

(** [exec_union ~child body] — branches concatenated in order; without
    ALL, duplicates are dropped keeping first occurrences. Raises {!Error}
    when a branch's arity differs from the union's. *)
val exec_union :
  child:(Qgm.Box.quant -> Column.batch) -> Qgm.Box.union_body -> Column.batch
