(* Feature switches for the matching algorithm, used by the ablation
   benchmarks (DESIGN.md section 5) to quantify what each design choice
   contributes. Production use leaves everything on. Mutable global state
   is acceptable here: the switches exist only to run controlled
   experiments single-threadedly. *)

(* Column-equivalence classes from join predicates (section 6; Figure 5's
   aid-from-faid derivation). *)
let equivalence_classes = ref true

(* Predicate subsumption in condition 2 (footnote 4): when on, a summary
   predicate that is not one of the query-side predicates passes if the
   prover shows their conjunction entails it. *)
let predicate_subsumption = ref true

(* Greedy largest-subexpression cover during derivation (section 6). When
   off, only whole expressions and bare column leaves can be covered —
   computed expressions like qty*price cannot be recognized inside larger
   expressions. *)
let greedy_derivation = ref true

(* Choose the smallest matching cuboid when slicing a grouping-sets AST
   (section 5.1). When off, the first declared cuboid that satisfies the
   conditions is used, which can regroup far more rows. *)
let smallest_cuboid = ref true

let reset () =
  equivalence_classes := true;
  predicate_subsumption := true;
  greedy_derivation := true;
  smallest_cuboid := true

(* Run [f] with a switch temporarily flipped off. *)
let without switch f =
  let saved = !switch in
  switch := false;
  Fun.protect ~finally:(fun () -> switch := saved) f
