(** QGM executor.

    Executes a QGM graph directly against a {!Db}: base-table scans,
    select-project-join with hash joins on equality predicates (one join per
    quantifier, through the shared grouping kernel), scalar subqueries, DISTINCT, hash aggregation, UNION, and
    multidimensional grouping sets (one cuboid per set, NULL-padded to the
    union of grouping columns, per the paper's section 5 semantics). The
    root's presentation (ORDER BY / LIMIT) is applied last.

    Every box runs on the vectorized columnar engine ({!Vexec}), memoized
    per box within a run. Results agree bag-wise with the whole-plan
    oracle {!Reference.run} (enforced by the differential suite). There is
    no mutable engine state. *)

exception Exec_error of string

(** Execute the graph's root box and apply its presentation. With
    [budget], operator boundaries check the deadline and meter produced
    rows against it, raising {!Govern.Budget.Budget_exhausted} — callers
    that budget execution must be prepared to fall back (the session falls
    back to the unbudgeted base plan). *)
val run : ?budget:Govern.Budget.t -> Db.t -> Qgm.Graph.t -> Data.Relation.t

(** [run] returning the result as a column batch, copied out of the
    scratch arena into permanent buffers — the form {!Db.put_batch}
    stores. No row is boxed. *)
val run_batch : ?budget:Govern.Budget.t -> Db.t -> Qgm.Graph.t -> Column.batch
