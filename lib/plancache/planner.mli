(** The rewrite-planning entry point: candidate filtering + memoized
    routing decisions + fault isolation.

    [plan] fingerprints the query ({!Qgm.Fingerprint.keys}) and looks its
    {e template} fingerprint up in the cache, which holds one entry per
    query shape (comparison constants abstracted). An entry planned for
    the same exact fingerprint is served as it stands (a hit, no
    matching). An entry planned for other constants is a template hit
    when re-matching only its route's summaries and the candidates whose
    definition has a WHERE or HAVING predicate reproduces its route at its
    estimated cost; the cost model reads no literal, so no other
    candidate can have changed. A template hit stores nothing. Anything
    else is planned in full: the summary tables are filtered through the
    candidate index ({!Candidates}) and the quarantine
    ({!Guard.Quarantine}) before only the plausible ones reach
    {!Astmatch.Rewrite.best}, and the decision replaces the shape's
    entry. Negative decisions ("no beneficial rewrite") are cached too, so
    a hot query that cannot be rewritten stops paying for matching as
    well.

    A rewritten decision is checked by {!Lint.Validate} before it is
    cached: a plan that breaks an IR invariant quarantines every summary
    table it used and the query gets the base plan.

    Planning never raises: any exception inside the rewrite pipeline is
    contained ({!Guard.Sandbox}), classified, counted, quarantines the
    offending (fingerprint x summary-table) pair, and at worst degrades the
    report to the unrewritten input graph.

    Every count lives in the process-wide {!Obs.Metrics} registry: the
    [plan.*] counters (requests, cache hits/misses/invalidations/evictions,
    template hits, which also count as cache hits,
    candidates attempted/filtered/quarantine-skipped, contained errors),
    [guard.fallbacks], [guard.quarantined] and [govern.degraded_plans].
    The planner keeps no counters of its own. *)

type t

type decision =
  | No_rewrite
  | Rewrite of Qgm.Graph.t * Astmatch.Rewrite.step list

type cache_outcome =
  | Hit           (** the entry was planned for this exact fingerprint *)
  | Template_hit  (** the entry's shape, re-matched for these constants *)
  | Miss          (** planned in full *)

type report = {
  pr_graph : Qgm.Graph.t;  (** graph to execute (the input when unrewritten) *)
  pr_steps : Astmatch.Rewrite.step list;
  pr_cache : cache_outcome;
  pr_fingerprint : string; (** [""] only when planning itself fell over *)
  pr_attempted : int;      (** candidates that reached the matcher *)
  pr_filtered : int;       (** candidates skipped by the index *)
  pr_quarantined : int;    (** candidates skipped by the quarantine *)
  pr_errors : Guard.Error.t list;
      (** failures contained during {e this} planning ([] on a hit) *)
  pr_degraded : Govern.Budget.reason option;
      (** when set, the resource budget ran out mid-planning: the decision
          is best-so-far (possibly the base plan), was {e not} cached, and
          a re-plan under an adequate budget will try again *)
  pr_validated : int;
      (** static-validator runs during this planning (1 when a rewritten
          plan was checked, 0 on a hit or an unrewritten plan) *)
}
(** On a cache hit, [pr_attempted]/[pr_filtered]/[pr_quarantined] report
    the counts from the planning that produced the entry (nothing was
    attempted now); on a template hit [pr_attempted] is the number of
    candidates re-matched. *)

(** [create ?capacity ()] — [capacity] bounds the LRU plan cache (default
    256 query shapes); the quarantine holds up to 256 fingerprints. *)
val create : ?capacity:int -> unit -> t

(** [plan t ~cat ~epoch ~mvs g] routes [g] through the fresh summary
    tables [mvs]. [epoch] must change whenever [mvs], their contents, the
    catalog, or base-table data change (see {!Cache}); the candidate index
    is rebuilt lazily per epoch. Never raises (see above).

    With [trace], the attempt is recorded as a [plan] span whose children
    are the per-candidate verdicts: index-filtered and quarantined
    candidates appear as typed rejections, and the ones handed to the
    matcher carry the full navigate/match/cost sub-tree.

    With [budget], matching/routing is metered; if the budget runs out the
    best-so-far decision is served with [pr_degraded] set and is {e not}
    cached. [Budget_exhausted] never escapes [plan]. *)
val plan :
  ?trace:Obs.Trace.t ->
  ?budget:Govern.Budget.t ->
  t ->
  cat:Catalog.t ->
  epoch:int ->
  mvs:Astmatch.Rewrite.mv list ->
  Qgm.Graph.t ->
  report

(** Partition [mvs] as the planner's candidate filter would for this query
    (diagnostics for EXPLAIN REWRITE). *)
val classify :
  t ->
  cat:Catalog.t ->
  epoch:int ->
  mvs:Astmatch.Rewrite.mv list ->
  Qgm.Graph.t ->
  Astmatch.Rewrite.mv list * Astmatch.Rewrite.mv list

(** [quarantine t ~fp mvs] quarantines each [(summary table, definition
    version)] pair in [mvs] for the query fingerprinted [fp] (used by the
    session when a rewritten plan failed at execution or mis-verified),
    counts the newly added pairs in [guard.quarantined], and drops the
    now-discredited cache entry planned for [fp]. Entries expire when the table's
    definition version moves (REFRESH / re-CREATE), not on unrelated
    epoch churn. *)
val quarantine : t -> fp:string -> (string * int) list -> unit

(** Entries currently cached. *)
val cache_length : t -> int

(** Quarantined (fingerprint x summary-table) pairs currently held. *)
val quarantine_length : t -> int
