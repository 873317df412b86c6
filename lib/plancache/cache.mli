(** A bounded LRU map from a string key (the planner's template
    fingerprint) to cached value, with epoch-based
    invalidation: every entry is stamped with the store epoch at insertion
    and is dropped (never served) when looked up under a different epoch.
    The epoch is bumped by everything that could change planning inputs
    (summary DDL, refresh, DML, table DDL), so a stale plan cannot
    survive a lookup. *)

type 'a t

(** [create ~capacity] — capacity must be positive. *)
val create : capacity:int -> 'a t

val capacity : 'a t -> int
val length : 'a t -> int
val clear : 'a t -> unit

(** Drop every entry whose value satisfies the predicate. Used when a
    cached decision is discredited after the fact — e.g. its plan
    mis-verified at runtime. *)
val remove_where : 'a t -> ('a -> bool) -> unit

type 'a lookup =
  | Hit of 'a
  | Stale  (** present but from an older epoch; the entry was dropped *)
  | Absent

val find : 'a t -> epoch:int -> string -> 'a lookup

(** [put t ~epoch key v] inserts (or replaces) and returns the number of
    LRU evictions performed to stay within capacity (0 or 1). *)
val put : 'a t -> epoch:int -> string -> 'a -> int
