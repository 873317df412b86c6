(** Known-bad (query-fingerprint x summary-table x definition-version)
    triples.

    When a summary table's candidacy for a query failed (rewrite
    exception) or mis-verified (runtime result mismatch), the pair is
    quarantined: repeat plannings of the same query skip that candidate
    while still trying the others. Each pair is stamped with the table's
    {e definition version} — the store epoch at which it was last defined
    or refreshed — and expires exactly when that version moves: REFRESH,
    auto-refresh or DROP + re-CREATE void the observation, while
    unrelated DML (which bumps only the global epoch) leaves it standing.
    In particular, re-creating a same-named table can never resurrect a
    quarantine hit recorded against its previous incarnation. The table
    is bounded by LRU eviction over fingerprints. *)

type t

(** The number of fingerprints a quarantine holds (256); admitting one
    more evicts the least recently used. *)
val capacity : int

(** An empty quarantine. *)
val create : unit -> t

(** [add t ~version ~fp ~mv] quarantines [mv], at definition version
    [version], for the query fingerprinted [fp]. Returns [true] when the
    triple was not already present; a pair for the same table under an
    older version is superseded. *)
val add : t -> version:int -> fp:string -> mv:string -> bool

(** [blocked t ~versions ~fp] — the summary tables still quarantined for
    this query, given the current definition versions of the live
    candidates ([versions]). Pairs whose table moved to a new version are
    dropped; pairs whose table is absent from [versions] (stale or
    dropped) are retained but not reported. *)
val blocked : t -> versions:(string * int) list -> fp:string -> string list

val is_blocked :
  t -> versions:(string * int) list -> fp:string -> mv:string -> bool

(** Quarantined fingerprints currently held. *)
val length : t -> int

(** Quarantined (fingerprint x summary-table) pairs currently held. *)
val entries : t -> int

val clear : t -> unit
