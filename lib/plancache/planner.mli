(** The rewrite-planning entry point: candidate filtering + memoized
    routing decisions + fault isolation.

    [plan] fingerprints the query ({!Qgm.Fingerprint}), serves a cached
    decision when the store epoch still matches, and otherwise filters the
    summary tables through the candidate index ({!Candidates}) and the
    quarantine ({!Guard.Quarantine}) before handing only the plausible ones
    to {!Astmatch.Rewrite.best}. Negative decisions ("no beneficial
    rewrite") are cached too, so a hot query that cannot be rewritten stops
    paying for matching as well.

    A rewritten decision is checked by {!Lint.Validate} before it is
    cached: a plan that breaks an IR invariant quarantines every summary
    table it used and the query gets the base plan.

    Planning never raises: any exception inside the rewrite pipeline is
    contained ({!Guard.Sandbox}), classified, counted, quarantines the
    offending (fingerprint x summary-table) pair, and at worst degrades the
    report to the unrewritten input graph. *)

type t

type decision =
  | No_rewrite
  | Rewrite of Qgm.Graph.t * Astmatch.Rewrite.step list

type report = {
  pr_graph : Qgm.Graph.t;  (** graph to execute (the input when unrewritten) *)
  pr_steps : Astmatch.Rewrite.step list;
  pr_hit : bool;           (** served from the plan cache *)
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
    attempted now). *)

(** [create ?capacity ?quarantine_capacity ()] — [capacity] bounds the LRU
    plan cache (default 256); [quarantine_capacity] bounds the quarantine
    (default 256 fingerprints). *)
val create : ?capacity:int -> ?quarantine_capacity:int -> unit -> t

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
    counts the newly added pairs in the stats, and drops the
    now-discredited cache entry for [fp]. Entries expire when the table's
    definition version moves (REFRESH / re-CREATE), not on unrelated
    epoch churn. *)
val quarantine : t -> fp:string -> (string * int) list -> unit

(** Live counters (mutated by subsequent planning; {!Stats.copy} to
    snapshot). *)
val stats : t -> Stats.t

(** Entries currently cached. *)
val cache_length : t -> int

(** Quarantined (fingerprint x summary-table) pairs currently held. *)
val quarantine_length : t -> int
