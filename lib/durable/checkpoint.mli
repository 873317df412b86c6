(** Checkpoints: atomic snapshots of the whole database state.

    A checkpoint file [ckpt-<lsn>.json] holds the catalog, every base
    table's rows, and every summary table's definition, freshness and
    payload, as of WAL position [lsn]. It is written to a temp file,
    fsynced and renamed into place, so a crash at any point leaves either
    the previous checkpoint set or the previous set plus one complete new
    file — never a half checkpoint under the real name. The newest two
    checkpoints are retained (the newest could be the one a crash
    interrupted the WAL truncation of).

    Crash-injection points ({!Guard.Fault}): an armed [Checkpoint_write]
    SIGKILLs half-way through writing the temp file; an armed
    [Checkpoint_rename] SIGKILLs just before the rename. Recovery must
    survive both, falling back to the previous checkpoint + longer WAL
    suffix. *)

(** Row payloads are sequences: writing reads them one row at a time (a
    table's rows straight from its stored batch), loading yields them from
    the decoded list. A sequence must be re-readable ({!to_json} and
    {!write} each traverse it). *)

type summary = {
  ck_name : string;
  ck_sql : string;          (** defining query, re-elaborated at recovery *)
  ck_fresh : bool;
  ck_srows : Data.Relation.row Seq.t;
}

type table = {
  ck_table : Catalog.table;  (** full schema incl. keys and FKs *)
  ck_rows : Data.Relation.row Seq.t;
}

type t = {
  ck_lsn : int;              (** WAL records with lsn <= this are covered *)
  ck_tables : table list;    (** base tables only *)
  ck_summaries : summary list;
}

(** The on-disk JSON encoding (format-versioned; for tests). *)
val to_json : t -> Obs.Json.t

(** [write dir t] writes [ckpt-<lsn>.json] atomically and prunes all but
    the two newest checkpoints. The file holds exactly {!to_json}'s
    rendering plus a newline, encoded one row at a time. Raises on I/O
    failure. *)
val write : string -> t -> unit

(** Decode one checkpoint file. *)
val load_file : string -> (t, string) result

(** Newest checkpoint in [dir] that decodes cleanly, skipping over invalid
    or torn ones; [snd] is the number of candidates skipped. *)
val load_latest : string -> t option * int

(** [ckpt-<lsn>.json] paths in [dir], newest first (by lsn). *)
val files : string -> string list
