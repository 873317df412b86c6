(* Feature switches for the matching algorithm (documented in
   config.mli). An immutable value carried on the match context; the
   ablation benchmark and test pass modified copies of [default], and
   production planning always uses [default], with everything on. *)

type t = {
  equivalence_classes : bool;
  predicate_subsumption : bool;
  greedy_derivation : bool;
  smallest_cuboid : bool;
}

let default =
  {
    equivalence_classes = true;
    predicate_subsumption = true;
    greedy_derivation = true;
    smallest_cuboid = true;
  }
