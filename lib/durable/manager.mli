(** The durability manager: WAL + checkpoints + boot-time recovery.

    {2 Write path}

    {!bind} installs a commit hook on a session ({!Mvstore.Session.set_on_commit}).
    The hook runs inside the shared writer lock, after the statement body
    succeeds and {e before} the atomic publish: it assigns the next LSN,
    appends one WAL record ({!Wal}), applies the fsync policy, and — every
    [checkpoint_every] commits — first folds the log so far into a fresh
    checkpoint ({!Checkpoint}). A hook failure aborts the statement
    (append-before-publish), so no acknowledged write exists without its
    log record. A crash {e between} append and publish can leave a logged
    but unacknowledged statement, which replay applies — duplicates are
    impossible beyond that one in-flight statement, and it was never
    acknowledged.

    {2 Recovery}

    {!recover} loads the newest checkpoint that decodes cleanly (skipping
    torn/corrupt ones), rebuilds the catalog, base tables and summary
    tables without re-running any defining query ({!Mvstore.Store.restore}),
    truncates the WAL's torn tail, and replays the suffix of records with
    LSN beyond the checkpoint through the ordinary statement path — so
    statement-rollback semantics and incremental summary maintenance apply
    to replay exactly as they did to the original execution. Then the
    degraded-recovery ladder runs: every fresh summary payload is verified
    against a re-derivation from the recovered base tables; a mismatch
    empties and quarantines that summary ({!Mvstore.Store.quarantine_payload})
    and reports it for a deferred rebuild ([r_quarantined] — callers
    enqueue these into {!Mvstore.Maint}), and a summary whose definition no
    longer elaborates is dropped ([r_dropped]). Recovery never refuses to
    boot over summary damage: summaries are derived state. *)

type config = {
  c_dir : string;              (** directory for wal.log + ckpt-*.json *)
  c_fsync : Wal.fsync_policy;
  c_checkpoint_every : int;    (** commits between auto-checkpoints; 0 = never *)
}

val default_config : string -> config

type report = {
  r_ckpt_lsn : int option;     (** checkpoint recovered from, if any *)
  r_ckpt_skipped : int;        (** invalid checkpoint files skipped over *)
  r_wal_records : int;         (** valid WAL records on disk *)
  r_replayed : int;            (** records applied (LSN beyond checkpoint) *)
  r_replay_errors : int;       (** records that failed to apply *)
  r_torn_bytes : int;          (** torn WAL tail truncated away *)
  r_quarantined : string list; (** summaries emptied by payload verification *)
  r_dropped : string list;     (** summaries dropped (defs no longer elaborate) *)
}

val describe_report : report -> string

type t

(** Recover (or initialize) the durability directory and return the manager
    plus the shared database state every session should attach to. *)
val recover : config -> t * Mvstore.Shared.t * report

(** Install the commit hook on a session attached to this manager's shared
    state. *)
val bind : t -> Mvstore.Session.t -> unit

(** The raw hook, for callers managing sessions themselves. *)
val log : t -> Mvstore.Session.commit -> unit

(** Take a checkpoint of the current shared snapshot now (serializes with
    writers), then drop the WAL records it covers. The server calls this on
    drain-complete SIGTERM shutdown. *)
val checkpoint : t -> unit

(** Fsync the WAL regardless of policy, close it. *)
val close : t -> unit

val config : t -> config

(** Last LSN assigned (0 before any commit). *)
val last_lsn : t -> int

(** LSN the newest checkpoint covers. *)
val checkpoint_lsn : t -> int

(** Multi-line durability block for [\health]. *)
val describe : t -> string
