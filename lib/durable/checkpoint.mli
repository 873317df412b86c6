(** Checkpoints: atomic snapshots of the whole database state.

    A checkpoint is a small manifest [ckpt-<lsn>.json] (format 2) plus the
    typed chunk files it names. The manifest holds the catalog, every
    summary's definition and freshness, and for every base table and
    {e stale} summary its row count, names, column kinds and ordered chunk
    names, as of WAL position [lsn]. A fresh summary has no payload: it
    equals its re-derivation from the base tables, which recovery
    computes. Each chunk ({!Chunk}) is a fixed row range, or one column's
    dictionary, of a stored batch, in a file named [<md5-hex>.chunk] after
    the MD5 digest of its bytes.

    Every new file is written to a temp file, fsynced and renamed; the
    chunks land (and the directory is fsynced) before the manifest is
    renamed into place, so a crash at any point leaves either the previous
    manifests or the previous ones plus one complete new one whose chunks
    are all on disk. The newest two manifests are retained, with every
    chunk either of them names.

    Crash-injection points ({!Guard.Fault}), each passed once per
    checkpoint: an armed [Checkpoint_write] SIGKILLs half-way through the
    first new file the checkpoint writes; an armed [Checkpoint_rename]
    SIGKILLs just before the manifest rename. Recovery must survive both,
    falling back to the previous checkpoint + longer WAL suffix.

    Metrics: [durable.chunks_written], [durable.chunks_reused] and
    [durable.checkpoint_bytes] (bytes of chunks and manifests written). *)

type summary = {
  ck_name : string;
  ck_sql : string;          (** defining query, re-elaborated at recovery *)
  ck_payload : Engine.Column.batch option;
      (** [None]: fresh, re-derived at recovery, no chunks written;
          [Some b]: stale, with the contents of its last refresh *)
}

type table = {
  ck_table : Catalog.table;  (** full schema incl. keys and FKs *)
  ck_batch : Engine.Column.batch;  (** one column per catalog column *)
}

type t = {
  ck_lsn : int;              (** WAL records with lsn <= this are covered *)
  ck_tables : table list;    (** base tables only *)
  ck_summaries : summary list;
}

(** Chunk digests this process wrote, or read back and verified, for one
    checkpoint. *)
type known

val nothing_known : known

(** [write ~known dir t] writes [t]'s chunks and then its manifest
    [ckpt-<lsn>.json] atomically, and prunes all but the two newest
    manifests, every chunk neither of them names and stray temp files. A
    chunk whose digest is in [known] (default {!nothing_known}) is not
    written again; a chunk file already on disk under the same name but
    not in [known] is rewritten. Returns the digests the new manifest
    names: the [known] of the next checkpoint. Raises on I/O failure. *)
val write : ?known:known -> string -> t -> known

type loaded = {
  l_ckpt : t;
  l_damaged : string list;
      (** stale summaries whose chunks were missing or failed their
          digest, loaded with an empty payload *)
  l_known : known;  (** every chunk verified while loading *)
}

(** Load one manifest and its chunks, checking every chunk's digest. A
    base-table chunk that is missing or damaged fails the whole
    checkpoint; a damaged stale-summary chunk only empties that summary.
    Chunks a manifest names for a fresh summary (older writers named
    them) are ignored: neither read nor digested. A manifest of another
    format (format 1 held JSON rows) is an error. *)
val load_file : string -> (loaded, string) result

(** Newest checkpoint in [dir] that loads cleanly, skipping over invalid
    or torn ones; [snd] is the number of candidates skipped. *)
val load_latest : string -> loaded option * int

(** [ckpt-<lsn>.json] paths in [dir], newest first (by lsn). *)
val files : string -> string list
