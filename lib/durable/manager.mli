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

    {!recover} loads the newest checkpoint that loads cleanly (skipping
    torn/corrupt ones, and ones missing a base-table chunk), rebuilds the
    catalog and base tables from its typed chunks, and restores every
    summary before the WAL is replayed ({!Mvstore.Store.restore}): a
    summary that was fresh is re-derived from the restored base tables
    ({!Mvstore.Store.derive_set}: the fresh summaries as one set, each
    rolled up from the smallest fresh one that answers it, else through
    {!Engine.Exec.run_batch}), a stale one gets its checkpointed payload
    back. Then it truncates the WAL's torn tail and replays the
    suffix of records with LSN beyond the checkpoint through the ordinary
    statement path — so statement-rollback semantics and incremental
    summary maintenance apply to replay exactly as they did to the
    original execution. A stale summary whose chunks were missing or
    failed their digest, and a fresh one whose re-derivation raised, are
    restored empty and stale and reported for a deferred rebuild
    ([r_quarantined] — callers enqueue these into {!Mvstore.Maint}). A
    summary whose definition no longer elaborates, or that reads another
    summary, is dropped ([r_dropped]). Recovery never refuses to boot over
    summary damage: summaries are derived state. *)

type config = {
  c_dir : string;  (** directory for wal.log, ckpt-*.json and *.chunk *)
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
  r_quarantined : string list;
      (** summaries restored empty and stale: a stale one whose chunk
          failed its digest, a fresh one whose re-derivation raised *)
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
    writers), then drop the WAL records it covers. Seeding a recovered-empty
    database calls this; shutdown paths call {!final_checkpoint}. *)
val checkpoint : t -> unit

(** The exit checkpoint: {!checkpoint}, unless no WAL record was appended
    since the newest checkpoint ([last_lsn = checkpoint_lsn]) and the
    summary store has not moved since (a maintenance rebuild changes it
    without logging), when that checkpoint already holds the state.
    [true] when one was taken. *)
val final_checkpoint : t -> bool

(** Fsync the WAL regardless of policy, close it. *)
val close : t -> unit

val config : t -> config

(** Last LSN assigned (0 before any commit). *)
val last_lsn : t -> int

(** LSN the newest checkpoint covers. *)
val checkpoint_lsn : t -> int

(** Multi-line durability block for [\health]. *)
val describe : t -> string
