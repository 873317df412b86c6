(** QGM executor (engine dispatcher).

    Executes a QGM graph directly against a {!Db}: base-table scans,
    select-project-join with incremental hash joins on equality predicates,
    scalar subqueries, DISTINCT, hash aggregation, UNION, and
    multidimensional grouping sets (one cuboid per set, NULL-padded to the
    union of grouping columns, per the paper's section 5 semantics). The
    root's presentation (ORDER BY / LIMIT) is applied last.

    Every box runs on the vectorized columnar engine ({!Vexec}). The naive
    {!Reference} oracle's operators can stand in for it — per process via
    [ASTQL_EXEC=reference], or per call site via {!with_engine} — so the
    test suite can run end to end on the oracle. Both share one memoized
    recursion, so budget enforcement, metrics, and per-box memoization
    behave identically; results agree bag-wise (enforced by the
    differential fuzz suite). *)

exception Exec_error of string

type engine =
  | Vector  (** batch-at-a-time over typed columns *)
  | Reference  (** naive oracle operators; testing only *)

(** [with_engine e f] runs [f] under engine [e] (the process default is
    [Reference] when [ASTQL_EXEC=reference], else [Vector]), restoring the
    previous engine afterwards (also on exception). The knob is process-global:
    don't interleave with concurrent queries that assume another engine. *)
val with_engine : engine -> (unit -> 'a) -> 'a

(** Execute the graph's root box and apply its presentation. With
    [budget], operator boundaries check the deadline and meter produced
    rows against it, raising {!Govern.Budget.Budget_exhausted} — callers
    that budget execution must be prepared to fall back (the session falls
    back to the unbudgeted base plan). *)
val run : ?budget:Govern.Budget.t -> Db.t -> Qgm.Graph.t -> Data.Relation.t

(** Execute an arbitrary box of the graph (no presentation applied). *)
val run_box :
  ?budget:Govern.Budget.t -> Db.t -> Qgm.Graph.t -> Qgm.Box.box_id ->
  Data.Relation.t
