(** QGM executor (engine dispatcher).

    Executes a QGM graph directly against a {!Db}: base-table scans,
    select-project-join with hash joins on equality predicates (one join per
    quantifier, through the shared grouping kernel), scalar subqueries, DISTINCT, hash aggregation, UNION, and
    multidimensional grouping sets (one cuboid per set, NULL-padded to the
    union of grouping columns, per the paper's section 5 semantics). The
    root's presentation (ORDER BY / LIMIT) is applied last.

    Every box runs on the vectorized columnar engine ({!Vexec}). The naive
    {!Reference} oracle's operators can stand in for it — per process via
    [ASTQL_EXEC=reference] (read once, at startup), or per call via
    [~engine] — so the test suite can run end to end on the oracle. Both
    share one memoized recursion, so budget enforcement, metrics, and
    per-box memoization behave identically; results agree bag-wise
    (enforced by the differential fuzz suite). There is no mutable engine
    state. *)

exception Exec_error of string

type engine =
  | Vector  (** batch-at-a-time over typed columns *)
  | Reference  (** naive oracle operators; testing only *)

(** The engine a call without [~engine] runs on: [Reference] when
    [ASTQL_EXEC=reference] was set at startup, else [Vector]. *)
val default_engine : engine

(** Execute the graph's root box and apply its presentation. With
    [budget], operator boundaries check the deadline and meter produced
    rows against it, raising {!Govern.Budget.Budget_exhausted} — callers
    that budget execution must be prepared to fall back (the session falls
    back to the unbudgeted base plan). [engine] defaults to [Reference]
    when [ASTQL_EXEC=reference] is set, else [Vector]. *)
val run :
  ?budget:Govern.Budget.t -> ?engine:engine -> Db.t -> Qgm.Graph.t ->
  Data.Relation.t

(** [run] returning the result as a column batch, copied out of the
    scratch arena into permanent buffers — the form {!Db.put_batch}
    stores. No row is boxed on the vectorized engine. *)
val run_batch :
  ?budget:Govern.Budget.t -> ?engine:engine -> Db.t -> Qgm.Graph.t ->
  Column.batch
