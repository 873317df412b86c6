(** Deterministic, seed-free fault injection for the rewrite pipeline.

    The pipeline calls {!hit} at fixed places (planner entry, navigator
    entry, each match-function invocation, compensation construction,
    expression translation, execution of a rewritten plan); tests {!arm}
    a point so that its [N]th subsequent hit raises {!Injected} — once —
    proving that the fallback, quarantine and verification invariants
    hold under failure at an exact, reproducible position. [Corrupt] and [Corrupt_plan] are not raised but polled with
    {!fire}: [Corrupt] by the session to perturb a rewritten result (the
    verify oracle's job to catch), [Corrupt_plan] by the planner to break
    the chosen plan's IR (the final static check's job to catch). Disarmed
    hits cost one array read, so the hooks stay in production builds. *)

type point =
  | Navigate     (** {!Astmatch.Navigator.find_matches} entry *)
  | Match        (** each {!Astmatch.Patterns.match_boxes} call *)
  | Compensate   (** {!Astmatch.Rewrite.apply} (compensation construction) *)
  | Translate    (** {!Astmatch.Translate.through_comp} *)
  | Corrupt      (** rewritten-result corruption at run time (via {!fire}) *)
  | Corrupt_plan (** plan IR corruption before the final check (via {!fire}) *)
  | Refresh      (** summary-table refresh (maintenance path) *)
  | Delay        (** stall at the match site (via {!maybe_delay}) *)
  | Accept       (** server connection accept/handler path *)
  | Wal_append   (** WAL record write (crash leaves a torn tail) *)
  | Wal_fsync    (** WAL fsync (crash loses the un-synced suffix) *)
  | Checkpoint_write   (** checkpoint temp-file write (crash mid-write) *)
  | Checkpoint_rename  (** checkpoint atomic rename (crash just before) *)
  | Wire_partial_write (** reply cut mid-line, then forced disconnect *)
  | Wire_stall_read    (** serving loop stalls before the next read *)
  | Wire_disconnect    (** connection dropped after execution, before reply *)
  | Wire_corrupt       (** reply bytes corrupted in flight (line intact) *)
  | Plan         (** {!Plancache.Planner.plan}, inside its outer sandbox *)
  | Execute      (** execution of a rewritten plan, inside its sandbox *)

exception Injected of point

val point_name : point -> string
val all_points : point list

(** [arm p ~after:n] — the [n]th subsequent hit of [p] fires, then the
    point disarms itself (one-shot). Raises [Invalid_argument] if
    [n <= 0]. *)
val arm : point -> after:int -> unit

val disarm : point -> unit
val disarm_all : unit -> unit
val armed : point -> bool

(** Consume one hit; [true] exactly when the armed countdown reaches zero. *)
val fire : point -> bool

(** [fire], raising {!Injected} when it fires. *)
val hit : point -> unit

(** Parse and arm a spec like ["match:3,compensate"] (missing count = 1).
    Point names: navigate, match, compensate, translate, corrupt,
    corrupt_plan, refresh, delay, accept, plan, execute, and the wire points
    (wire_partial_write, wire_stall_read, wire_disconnect, wire_corrupt). *)
val arm_spec : string -> (unit, string) result

(** How long a fired [Delay] point stalls (default 10 ms). *)
val set_delay_ms : float -> unit

(** The [Delay] hook: from its [N]th call on ([arm Delay ~after:N]), every
    call sleeps for the configured delay — [Delay] does not raise and,
    unlike the one-shot points, stays armed once reached, so deadline
    expiry is deterministically reachable however many match calls a plan
    needs. Disarmed calls cost one array read. *)
val maybe_delay : unit -> unit

(** How long a fired [Wire_stall_read] stalls the serving loop (default
    250 ms). The serving loop polls it with {!fire} — one-shot, like the
    other wire points. *)
val wire_stall_ms : float ref

val set_wire_stall_ms : float -> unit

(** [ASTQL_FAULT_SEED] from the environment, when set and numeric (used by
    the randomized fault-injection tests and the CI matrix job). *)
val seed_of_env : unit -> int option

(** {1 Crash injection}

    Crash points simulate [kill -9] at an exact durability step: when an
    armed crash countdown fires, the process SIGKILLs itself — no handlers
    run, nothing is flushed. The countdowns are independent of the
    exception-raising [arm]/[hit] machinery, so in-process tests and the
    crash-torture harness never interfere. The durability layer places
    [crash_fire]/[crash_hit] at WAL append, WAL fsync, checkpoint write and
    checkpoint rename. *)

(** Arm a crash at the [after]th subsequent crash-hit of [p] (one-shot). *)
val arm_crash : point -> after:int -> unit

(** Consume one crash-hit; [true] exactly when the countdown reaches zero
    (the caller may first make the on-disk state deliberately torn, then
    call {!crash_now}). *)
val crash_fire : point -> bool

(** SIGKILL the current process (never returns). *)
val crash_now : unit -> 'a

(** [crash_fire], killing the process when it fires. *)
val crash_hit : point -> unit

(** Parse and arm a crash spec like ["wal_append:3,checkpoint_rename"]
    (missing count = 1). *)
val arm_crash_spec : string -> (unit, string) result

(** A minimal always-detectable perturbation of one value (simulates a
    compensation deriving an aggregate column incorrectly). *)
val corrupt_value : Data.Value.t -> Data.Value.t
