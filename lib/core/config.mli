(** Feature switches for the matching algorithm.

    These exist only so the ablations (DESIGN.md section 5) can quantify
    each design choice: pass a modified copy of {!default} to
    {!Navigator.find_matches}. Production planning always uses
    {!default}, with everything on. *)

type t = {
  equivalence_classes : bool;
      (** Column-equivalence classes from join predicates (section 6;
          Figure 5's aid-from-faid derivation). *)
  predicate_subsumption : bool;
      (** Predicate subsumption in condition 2 (footnote 4): a summary
          predicate that is not one of the query-side predicates may still
          pass when the prover shows their conjunction entails it. Off,
          only syntactic hits pass. *)
  greedy_derivation : bool;
      (** Greedy largest-subexpression cover during derivation (section
          6). Off, only whole expressions and bare column leaves can be
          covered: computed expressions like [qty*price] are not
          recognized inside larger ones. *)
  smallest_cuboid : bool;
      (** Smallest-cuboid selection when slicing grouping-sets ASTs
          (5.1). Off, the first declared cuboid that satisfies the
          conditions is used, which can regroup far more rows. *)
}

val default : t
(** Every switch on. *)
