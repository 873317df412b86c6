(** Feature switches for the matching algorithm.

    These exist only so the ablation benchmarks (DESIGN.md section 5) can
    quantify each design choice; production use leaves everything on.
    Single-threaded mutable globals by design. *)

val equivalence_classes : bool ref
(** Column-equivalence classes from join predicates (section 6). *)

val predicate_subsumption : bool ref
(** Predicate subsumption in condition 2 (footnote 4): a summary predicate
    that is not one of the query-side predicates may still pass when the
    prover shows their conjunction entails it. Off, only syntactic hits
    pass. *)

val greedy_derivation : bool ref
(** Greedy largest-subexpression cover during derivation (section 6). *)

val smallest_cuboid : bool ref
(** Smallest-cuboid selection when slicing grouping-sets ASTs (5.1). *)

val reset : unit -> unit

(** [without switch f] runs [f] with [switch] off, restoring it after. *)
val without : bool ref -> (unit -> 'a) -> 'a
