(** Resource budgets for planning and execution.

    A {!t} is a per-statement account: a wall-clock deadline plus caps on
    the dominant units of work in the rewrite pipeline (match-function
    invocations, routing candidates, executor row ticks).  Work sites call
    the [tick_*]/[check_deadline] helpers with a [t option]; [None] means
    "ungoverned" and costs nothing, so the hooks can stay in place
    unconditionally.

    Exhaustion is cooperative: the first check past a limit records the
    {!reason} on the budget and raises {!Budget_exhausted}.  Catchers
    (e.g. [Rewrite.best], [Session.run_query]) unwind to a safe point and
    degrade gracefully — best-so-far plan, or the unbudgeted base plan.
    The recorded reason survives the unwind so reports can say {i why} a
    plan was truncated. *)

type reason =
  | Deadline          (** wall-clock deadline passed *)
  | Match_budget      (** too many [Patterns.match_boxes] calls *)
  | Candidate_budget  (** too many routing candidates considered *)
  | Row_budget        (** executor produced too many rows *)

exception Budget_exhausted of reason

val reason_name : reason -> string
(** ["deadline" | "match-budget" | "candidate-budget" | "row-budget"] *)

type limits = {
  bl_deadline_ms : float option;  (** wall-clock budget for the statement *)
  bl_matches : int option;        (** max match-function invocations *)
  bl_candidates : int option;     (** max routing candidates costed *)
  bl_rows : int option;           (** max rows produced by the executor *)
}

val unlimited : limits

val is_unlimited : limits -> bool

val limits :
  ?deadline_ms:float -> ?matches:int -> ?candidates:int -> ?rows:int ->
  unit -> limits

val parse_deadline_ms : name:string -> string -> (float, string) result
(** The validity rule for a configured deadline: a finite number of
    milliseconds > 0.  The error message names the setting [name] (an
    environment variable or a flag). *)

val parse_count : name:string -> string -> (int, string) result
(** The validity rule for a configured cap: an integer > 0. *)

val default_limits : unit -> limits
(** {!unlimited} overridden by the environment: [ASTQL_DEADLINE_MS]
    ({!parse_deadline_ms}) and [ASTQL_MATCH_BUDGET] ({!parse_count}).
    Read on every call so tests can adjust the environment.  Raises
    [Invalid_argument] naming the variable when a set value is
    malformed. *)

val describe : limits -> string
(** One-line human rendering, e.g. ["deadline=10ms matches=5000"];
    ["unlimited"] when nothing is set. *)

type t

val start : limits -> t
(** Open an account: stamps the current time for the deadline. *)

val exhausted : t -> reason option
(** The first reason this budget ran out, if it did. *)

(** {2 Work-site hooks}

    Each takes [t option]; [None] is free.  All raise {!Budget_exhausted}
    (after recording the reason) when a limit is crossed, including on
    repeated calls after the first exhaustion. *)

val check_deadline : t option -> unit

val deadline_spent : t option -> bool
(** Non-raising probe for optional work (e.g. static proving): [true] when
    the wall-clock deadline has already passed, so the caller should skip
    the work instead of failing the statement.  Never records exhaustion. *)

val tick_match : t option -> unit
(** One [Patterns.match_boxes] invocation; also checks the deadline. *)

val tick_candidate : t option -> unit
(** One routing candidate considered; also checks the deadline. *)

val tick_rows : t option -> int -> unit
(** [n] rows produced at an executor operator boundary; also checks the
    deadline. *)
