(** The summary-table (AST) store: definitions, materialization, refresh.

    Each summary table is defined by a SQL query, materialized through the
    engine into an ordinary stored table, and registered in the catalog so
    rewritten queries can scan it. Inserts into and deletes from base
    tables are folded into eligible summary tables incrementally (delta
    aggregation, {!apply_delta}); other summary tables over the changed
    table turn stale and are excluded from
    rewriting until refreshed (the paper's problem (c), after [10]). *)

type merge_fn = M_add | M_min | M_max

type incr_plan = {
  ip_keys : string list;                 (** MV columns that are group keys *)
  ip_aggs : (string * merge_fn) list;    (** MV aggregate columns *)
  ip_count : string option;
      (** a COUNT-star column, when present: required for delete
          maintenance (it detects emptied groups) *)
  ip_delete_safe : bool;
      (** no SUM over a nullable argument (subtraction cannot restore the
          NULL that an all-NULL group requires) *)
}

type entry = {
  e_name : string;
  e_sql : string;
  e_graph : Qgm.Graph.t;
  e_cols : (string * Data.Value.ty) list;
  e_tables : string list;        (** base tables the definition reads *)
  e_fresh : bool;
  e_incr : incr_plan option;     (** [None]: full refresh only *)
  e_version : int;
      (** definition version: the store epoch this incarnation of the
          table was last (re)defined or refreshed under — the quarantine
          key, stable across unrelated DML *)
}

type t

val empty : t
val entries : t -> entry list
val find : t -> string -> entry option

(** The store's planning epoch. Every operation that could change a
    routing decision — {!define}, {!drop}, {!refresh_full},
    {!apply_delta}, and (via {!touch}) session-level
    DDL — bumps it; the plan cache refuses to serve a decision stamped
    with any other epoch, so a stale plan is never executed. *)
val epoch : t -> int

(** Bump the epoch without changing the entries (for invalidation events
    the store does not itself observe, e.g. CREATE TABLE). *)
val touch : t -> t

(** Names of entries currently stale (excluded from rewriting until
    refreshed; the maintenance queue's work list). *)
val stale : t -> string list

exception Mv_error of string

(** A set of definitions, elaborated and derived ahead of their installs. *)
type derivation

(** [derive_set store db defs] elaborates and derives every [(name, sql)]
    definition of [defs] over one state, for {!define} or {!restore} to
    install later.
    Members are derived by descending count of grouping columns (the union
    of the grouping sets; ties in list order). Each one is answered through
    {!Astmatch.Rewrite.best} from the members derived before it, tried one
    at a time in ascending row count; the first rewrite that reads that
    member alone and passes {!Lint.Validate} is run. A definition with AVG,
    a SUM that is not over integers, or a grouping over the empty set (a
    total, whose COUNT reads 0 over no rows where a rolled-up one would
    read NULL), and any member no candidate answers (or whose matching or
    execution fails) is derived from the base tables. Regrouping a parent
    held in first-seen order gives the
    child's groups in base first-seen order, and COUNT, integer SUM, MIN
    and MAX re-aggregate exactly, so the contents equal the base derivation
    row by row. A definition that does not elaborate against [store] and
    [db], repeats an earlier name, or fails to derive gets no entry.
    Failures are contained as {!Guard.Sandbox.protect} contains them:
    interrupts and resource exhaustion propagate. *)
val derive_set : t -> Engine.Db.t -> (string * string) list -> derivation

(** [define store db ~name ~sql] parses and elaborates the defining query,
    materializes it, registers the result as a catalog table, and stores the
    entry. Raises {!Mv_error} on name clashes or unsupported definitions,
    among them a definition that reads another summary table (the error
    names it): summaries are defined over base tables only.

    With [derived], [name]'s pre-derived elaboration and contents (for
    the same [sql]) are installed when every table of its footprint still
    has the definition and holds, physically, the batch it was derived
    from; only the name clash and summary-over-summary checks run again.
    Otherwise they are dropped (counted in [store.derived_discarded]) and
    the definition is elaborated and derived as without one. Contents rolled up from another member count in
    [store.derived_from_summary]. *)
val define :
  ?derived:derivation -> t -> Engine.Db.t -> name:string -> sql:string ->
  t * Engine.Db.t

val drop : t -> Engine.Db.t -> string -> t * Engine.Db.t

(** [restore store db ~name ~sql ~payload] re-registers a summary table
    from checkpoint state. The definition passes every check {!define}
    makes, so a name clash, an unparseable definition, one over another
    summary table or ill-formed IR raises {!Mv_error}. [payload = None]
    marks a summary that was fresh: it is re-derived through
    {!Engine.Exec.run_batch}, or taken from [derived], as {!define} does,
    and installed fresh; if
    that derivation raises, it is installed empty and stale instead.
    [Some batch] is a stale summary's payload, installed as-is and stale
    ({!Engine.Db.put_batch}; it must not be arena-backed); a payload whose
    arity disagrees with the definition raises {!Mv_error}. *)
val restore :
  ?derived:derivation -> t -> Engine.Db.t -> name:string -> sql:string ->
  payload:Engine.Column.batch option -> t * Engine.Db.t

(** Recompute a summary table from scratch, mark it fresh and move its
    definition version (voiding quarantine observations against the old
    contents). Hits the [Refresh] fault-injection point. With [budget],
    the recomputation is metered ({!Engine.Exec.run}) and may raise
    [Budget_exhausted] — the caller (the maintenance drain) defers the
    refresh rather than failing it. *)
val refresh_full :
  ?budget:Govern.Budget.t -> t -> Engine.Db.t -> string -> t * Engine.Db.t

(** [apply_delta ~sign store db ~table ~delta] folds one statement's rows
    [delta] (in [table]'s column order; inserted when [sign > 0], deleted
    when [sign < 0]) into the summaries over [table], and must be called
    {e before} [table] changes. [delta] is forced at most once, and only
    if a summary absorbs it. Inserts are absorbed by every incremental
    plan, deletes only by plans with COUNT/SUM aggregates and a
    COUNT-star column (groups whose count reaches zero disappear); every
    other summary over [table] goes stale. The third component names the
    entries that {e newly} went stale (the maintenance queue's input). *)
val apply_delta :
  sign:int -> t -> Engine.Db.t -> table:string ->
  delta:Engine.Column.batch Lazy.t -> t * Engine.Db.t * string list

(** {!apply_delta} with [sign = 1] over inserted rows. *)
val apply_insert :
  t -> Engine.Db.t -> table:string -> rows:Data.Relation.row list ->
  t * Engine.Db.t * string list

(** {!apply_delta} with [sign = -1] over deleted rows. *)
val apply_delete :
  t -> Engine.Db.t -> table:string -> rows:Data.Relation.row list ->
  t * Engine.Db.t * string list

(** Fresh summary tables, packaged for the rewriter. *)
val rewritable : t -> Astmatch.Rewrite.mv list
