(** Statement-level driver: DDL, DML, summary-table management, querying
    with transparent rewriting. This is what the CLI and the examples sit
    on. *)

type t

type outcome =
  | Msg of string                 (** DDL/DML acknowledgement *)
  | Table of Data.Relation.t      (** query result *)
  | Plan of string                (** EXPLAIN REWRITE output *)

exception Session_error of string

(** Runtime result verification of rewritten queries. [Sampled p] verifies
    a deterministic [p] fraction of rewritten queries (accumulator-based,
    no RNG: [Sampled 0.25] verifies exactly every 4th). A verified query
    executes the base plan too and bag-compares; on mismatch the summary
    tables used are quarantined and the base answer is served — graceful
    degradation, never a wrong result.

    [Static] verifies like [Always] {e except} when the static prover
    certified every applied rewrite step at match time ([Proved]): those
    queries skip the runtime re-execution entirely (counted in
    [verify_static_skips] and the [prove.verify_skips] metric). *)
type verify = Off | Sampled of float | Always | Static

(** A session's settings, one immutable value.
    - [rewrite]: transparent summary-table routing for SELECTs.
    - [verify]: runtime result verification (above).
    - [limits]: the per-statement resource budget (admission control).
    - [auto_maint]: drain the deferred-maintenance queue at statement
      boundaries, auto-refreshing summary tables that DML left stale (with
      backoff and quarantine on repeated failure). Stale tables are
      {e always} enqueued; this only controls whether the queue drains. *)
type config = {
  rewrite : bool;
  verify : verify;
  limits : Govern.Budget.limits;
  auto_maint : bool;
}

(** [rewrite = true], [verify = Off], [auto_maint = false], and [limits]
    from {!Govern.Budget.default_limits} (unlimited unless the
    [ASTQL_DEADLINE_MS]/[ASTQL_MATCH_BUDGET] environment variables say
    otherwise; a malformed value raises [Invalid_argument]). *)
val default_config : unit -> config

(** [create ()] starts with an empty catalog. [config] defaults to
    {!default_config}[ ()]. *)
val create : ?config:config -> unit -> t

(** Start from an existing catalog and table contents. *)
val of_tables :
  ?config:config -> Catalog.t -> (string * Data.Relation.t) list -> t

(** [attach shared] creates a session bound to {!Shared} database state, so
    many sessions — typically one per server connection, running on
    different domains — serve the same catalog. In shared mode every
    statement runs against a consistent copy-on-write snapshot: reads take
    one atomic load and never block; mutating statements serialize through
    the shared writer lock and publish atomically (a failed write publishes
    nothing). The session object itself is {e not} thread-safe — use it
    from one domain at a time; the cross-domain safety lives entirely in
    {!Shared}. Planner, plan cache and quarantine stay per-session
    (epoch-keyed, so they self-invalidate when another session publishes a
    write). *)
val attach : ?config:config -> Shared.t -> t

(** [share t] returns the session's shared state, promoting a private
    session to shared mode first if needed (its current db/store become the
    initial snapshot). Subsequent {!attach}es to the result serve the same
    data. *)
val share : t -> Shared.t

(** The shared state this session is bound to, if any. *)
val shared : t -> Shared.t option

(** One committed write statement, as the durability layer logs it.
    [Commit_sql] re-executes verbatim at replay; COPY FROM logs the rows it
    loaded ([Commit_rows]) because the source file may be gone by recovery
    time. *)
type commit =
  | Commit_sql of string
  | Commit_rows of { cr_table : string; cr_rows : Data.Relation.row list }

(** [set_on_commit t (Some hook)] installs the durability hook: it runs
    inside the write-snapshot closure after a mutating statement's body
    succeeds and {e before} the atomic publish, so a hook that raises
    aborts the whole statement (append-before-publish — no write is ever
    visible without its log record). Read-only statements never reach it.
    [None] uninstalls. *)
val set_on_commit : t -> (commit -> unit) option -> unit

(** WAL replay of a [Commit_rows] record: folds the rows through summary
    maintenance and appends them, without re-running integrity checks (they
    passed in the process that logged the record). Raises {!Session_error}
    if the table does not exist. *)
val replay_rows :
  t -> table:string -> rows:Data.Relation.row list -> unit

(** The session's settings, used by every statement that is not given
    its own [?config]. *)
val config : t -> config

(** [set_config t c] takes effect from the next statement; it never
    interrupts one in flight. Changing [verify] restarts the sampling
    accumulator. *)
val set_config : t -> config -> unit

(** Budget-degradation annotations. Whenever the ladder trades quality for
    survival — planning stopped at the best-so-far plan, or rewritten
    execution fell back to the (unbudgeted) base plan — the typed
    exhaustion reason ({!Govern.Budget.reason_name}: ["deadline"],
    ["match-budget"], ...) is recorded on the session. The server resets
    this before each request and folds what accumulated into the reply's
    ["degraded"] annotation. Deduplicated, oldest first. *)
val degraded_reasons : t -> string list

val reset_degraded : t -> unit

(** Statement classification for the shared-state discipline (and for
    client-side retry safety): [true] exactly for the statements that
    mutate the database, i.e. those that serialize through the writer lock
    and must not be blindly retried after an ambiguous acknowledgement. *)
val stmt_writes : Sqlsyn.Ast.stmt -> bool

(** The session's deferred-maintenance queue (inspection; the astql
    [\health] command renders it). *)
val maint : t -> Maint.t

(** When enabled, every planning attempt records a structured span trace
    ({!Obs.Trace}) kept in a bounded per-session ring (the astql [\trace]
    command). Off by default: the production path passes [None] everywhere
    and pays nothing. *)
val set_trace : t -> bool -> unit

val trace_enabled : t -> bool

(** Recorded traces, oldest first, labelled with the planned query's SQL. *)
val traces : t -> (string * Obs.Trace.t) list

val clear_traces : t -> unit
val db : t -> Engine.Db.t
val store : t -> Store.t

(** Definition-time lint (Lint.Advisor) of every summary table currently
    in the store, in definition order: [(name, diagnostics)]. Also run
    automatically on CREATE SUMMARY TABLE, whose message carries the
    diagnostics as warnings. *)
val lint_summaries : t -> (string * Lint.Advisor.diag list) list

(** The session's rewrite planner (candidate index + plan cache). *)
val planner : t -> Plancache.Planner.t

(** Human-readable fault-isolation report (the astql [\health] command):
    fallbacks, contained rewrite errors, quarantine adds/holdings/skips,
    verification runs and mismatches, degraded plans and the maintenance
    queue. The counts are the process-wide {!Obs.Metrics} counters
    ([guard.*], [plan.contained_errors], [plan.quarantine_skips],
    [prove.verify_skips], [govern.*]); the holdings and the queue are this
    session's. *)
val health : t -> string

(** Execute one statement. Raises {!Session_error} (with parse/semantic
    context) on bad input. [config] replaces the session's settings for
    this statement only; the session never stores it. *)
val exec_stmt : ?config:config -> t -> Sqlsyn.Ast.stmt -> outcome

(** Execute a semicolon-separated script, each statement under [config]
    (default: the session's own). *)
val exec_sql : ?config:config -> t -> string -> outcome list

(** Run a query, returning the result plus the rewrite steps applied (empty
    when the original plan ran — including when a contained rewrite failure
    or verification mismatch fell back to it). Never raises because of the
    rewrite pipeline: the only exceptions are those the base plan itself
    produces, exactly as a session with [rewrite = false] would.

    [config] replaces the session's settings for this statement only. A
    budget exhausted during planning degrades to the best-so-far (possibly
    base) plan; exhausted during rewritten execution, the base plan is
    re-run unbudgeted — resource pressure can cost performance, never
    correctness. *)
val run_query :
  ?config:config ->
  t ->
  Sqlsyn.Ast.query ->
  Data.Relation.t * Astmatch.Rewrite.step list

(** Render an EXPLAIN REWRITE report for a query. With [~verbose:true]
    (EXPLAIN REWRITE VERBOSE) unmatched candidates print their full match
    span tree — every pattern attempted and the typed reason it was
    rejected — instead of the deduplicated reason list, and rewritten
    queries append the complete routing trace. *)
val explain : ?verbose:bool -> t -> Sqlsyn.Ast.query -> string
