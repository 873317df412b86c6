(** Typed taxonomy for failures contained by the rewrite-pipeline sandbox.

    A classified error records {e where} the exception was caught
    ({!stage}), {e what} it was ({!kind}) and, when known, which summary
    table's candidacy triggered it — enough for EXPLAIN annotations and
    quarantine keying without re-raising anything. *)

type stage =
  | Navigate     (** navigator driving the match *)
  | Match        (** the match function proper *)
  | Compensate   (** compensation construction ({!Astmatch.Rewrite.apply}) *)
  | Translate    (** expression translation *)
  | Validate     (** static IR validation (lib/lint) *)
  | Plan         (** planning outside any one candidate (fingerprint, cost, cache) *)
  | Execute      (** executing the rewritten plan *)
  | Verify       (** runtime result verification *)
  | Refresh      (** summary-table maintenance (auto or manual refresh) *)
  | Accept       (** server connection accept/handler path *)
  | Durability   (** WAL append / fsync / checkpoint path (lib/durable) *)

type kind =
  | Injected              (** {!Fault.Injected}: deterministic test fault *)
  | Assertion             (** [Assert_failure] *)
  | Invalid of string     (** [Invalid_argument] *)
  | Div_zero              (** [Division_by_zero] (e.g. constant folding) *)
  | Failed of string      (** [Failure] *)
  | Resource of string    (** [Stack_overflow] / [Out_of_memory] *)
  | Ill_formed of string  (** the planner's final static IR check failed *)
  | Unexpected of string  (** anything else, rendered via [Printexc] *)

type t = {
  err_stage : stage;
  err_kind : kind;
  err_mv : string option;  (** summary table being considered, when known *)
}

(** Raised (never returned) by {!Sandbox.protect} for asynchronous /
    unrecoverable conditions ([Stack_overflow], [Out_of_memory]): the
    classified context rides along so outer layers can report where the
    resource ran out, but no fallback path treats it as containable. *)
exception Fatal of t

(** [classify ~stage ?mv exn] — the stage is overridden by the injection
    point when [exn] is {!Fault.Injected} (the fault knows exactly where it
    struck). *)
val classify : stage:stage -> ?mv:string -> exn -> t

val stage_name : stage -> string
val to_string : t -> string
val pp : Format.formatter -> t -> unit
