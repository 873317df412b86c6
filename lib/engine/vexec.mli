(** Vectorized (batch-at-a-time) QGM operators (DESIGN.md §15).

    Each operator consumes and produces {!Column.batch} values; the
    dispatcher in {!Exec} runs every box of a plan through them. Shapes
    without a typed kernel (CASE expressions, DISTINCT aggregates, UNION
    bodies) run on boxed values inside the same operators. *)

exception Error of string

(** Position of a column in a batch, case-insensitively, like
    [Relation.column_index]. Raises [Not_found] when absent. *)
val batch_col_index : Column.batch -> string -> int

(** Scan a base table's stored batch ({!Db.batch}), projected to the
    box's columns without copying. Raises [Not_found] on a missing column,
    like [Relation.project]. *)
val exec_base : Db.t -> Qgm.Box.base_body -> Column.batch

(** [exec_select ~child body] — filters, joins, output projection,
    DISTINCT. [child] resolves a quantifier to its input batch. Each
    quantifier joins the working set through the grouping kernel: its
    equi-join keys and the working set's group together, and with no key
    the same loop emits the cross product. Output row order is
    deterministic: probe-major (the working set's order), build rows
    ascending within a probe row's matches. *)
val exec_select :
  child:(Qgm.Box.quant -> Column.batch) -> Qgm.Box.select_body -> Column.batch

(** The grouping kernel's open-addressing table, for its tests:
    [probe_bits n] is the log size of the one table that groups [n] rows
    (the least power of two with at least [2n] slots, so the load never
    passes one half), and [probe_home bits k] is packed key [k]'s home
    slot in a table of [2 ^ bits] slots. A key space of more than
    [max 1024 (2n)] takes this table; a smaller one indexes a dense array. *)
val probe_bits : int -> int

val probe_home : int -> int -> int

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
