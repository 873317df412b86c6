(** The candidate index: cheap eligibility filtering over the MV store,
    run before any pair-wise matching (the analogue of DB2's filtering
    phase that precedes the paper's navigator).

    Each summary table is keyed by its *base-table footprint* (the sorted
    set of base tables its definition reads) and a *dedup bit* (whether the
    definition has a GROUP BY anywhere; SELECT DISTINCT and a
    duplicate-removing UNION are built as one). A candidate is
    eligible for a query when

    - every footprint table is either read by the query too, or is the
      parent of an RI (foreign-key) join from another footprint table —
      the only situation in which the matcher can prove an AST-only join
      lossless (section 4.1.1's extra children); and
    - if the candidate dedups, the query has a dedup path as well — a
      summary that has collapsed duplicates can never answer a query that
      still observes them, while the converse (query aggregates, summary
      does not) remains matchable.

    Eligibility is decided once per distinct (footprint, bit) key and
    shared by all candidates under that key. *)

type t

(** Build the index over the rewritable (fresh) summary tables. *)
val build : Astmatch.Rewrite.mv list -> t

val size : t -> int

(** Names of the indexed candidates, in store order. *)
val names : t -> string list

(** Sorted, case-folded base tables read by a graph. *)
val footprint : Qgm.Graph.t -> string list

(** Does the graph aggregate or eliminate duplicates anywhere? *)
val dedups : Qgm.Graph.t -> bool

(** [eligible t cat query] partitions the candidates into (kept, skipped),
    preserving store order within each side. *)
val eligible :
  t ->
  Catalog.t ->
  Qgm.Graph.t ->
  Astmatch.Rewrite.mv list * Astmatch.Rewrite.mv list
