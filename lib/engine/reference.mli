(** A deliberately naive QGM evaluator, kept as simple as possible so that
    its correctness is evident by inspection: nested-loop joins (no hashing,
    no predicate push-down ordering), per-group rescans for aggregation, no
    memoization. It exists solely as a differential-testing oracle for
    {!Exec} — see [test/test_differential.ml]. Quadratic and worse;
    never use it on real data. *)

(** Raised (with the offending box/quantifier/column named) instead of bare
    [Failure] on unbound quantifiers, unknown columns, and scalar
    subqueries of cardinality > 1, so oracle failures in differential tests
    are diagnosable. *)
exception Reference_error of string

val run : Db.t -> Qgm.Graph.t -> Data.Relation.t
