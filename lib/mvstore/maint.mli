(** The deferred-maintenance queue: self-healing for stale summary tables.

    When DML makes a summary table stale (observed by
    {!Store.apply_insert}/{!Store.apply_delete}), the session enqueues it
    here and the queue is drained opportunistically at statement
    boundaries, under the session's maintenance budget. Time is counted in
    drain ticks (one per statement boundary), not wall-clock, so the
    backoff schedule is deterministic under test.

    Refresh failures are classified ({!Guard.Error}) and retried with
    exponential backoff ([2 * 2^(attempts-1)] ticks); after 3 failed
    attempts the table is {e quarantined}: dropped
    from the queue and left stale until a manual [REFRESH] or [DROP]
    ({!remove}) clears the hold. A refresh stopped by budget exhaustion is
    {e deferred} (retried next tick) without counting as a failure. *)

type t

type task = {
  mt_mv : string;
  mutable mt_attempts : int;    (** failed refresh attempts so far *)
  mutable mt_not_before : int;  (** earliest drain tick for the next try *)
}

type quarantined = { mq_mv : string; mq_error : Guard.Error.t }

(** An empty queue: 3 failed attempts quarantine a table, and the backoff
    base is 2 ticks. *)
val create : unit -> t

(** Idempotent; a quarantined table is not re-enqueued. *)
val enqueue : t -> string -> unit

(** Forget a table entirely (queue and quarantine) — on DROP or manual
    REFRESH. *)
val remove : t -> string -> unit

(** Advance the clock one statement boundary. *)
val tick : t -> unit

(** Tables whose next attempt is due at the current tick. *)
val due : t -> string list

(** [record_success] ticks [govern.maint.auto_refreshes];
    [record_failure] ticks [govern.maint.refresh_failures] and, when the
    failure quarantines the table, [govern.maint.quarantined]. These
    registry counters are the queue's only lifetime counts. *)
val record_success : t -> string -> unit

val record_failure : t -> string -> Guard.Error.t -> unit

(** Budget ran out before the refresh finished: retry next tick, no
    penalty. *)
val defer : t -> string -> unit

val is_queued : t -> string -> bool
val is_quarantined : t -> string -> bool

(** Tables currently awaiting auto-refresh. *)
val depth : t -> int

val tasks : t -> task list
val quarantined : t -> quarantined list

(** Multi-line rendering for [\health]; the auto-refresh and failure
    counts are the process-wide registry counters. *)
val describe : t -> string
