(** Structured planning traces: a span tree per planning attempt
    (navigate -> candidate -> match pattern -> compensation -> translate ->
    cost) where every rejection carries a typed reason.

    Traces are threaded as [t option]; [None] (production) costs a pattern
    match per hook and allocates nothing. Sessions keep recent traces in a
    {!ring}; [EXPLAIN REWRITE VERBOSE] and astql [\trace show] render
    them. *)

(** Why a candidate pair, match pattern, or whole summary-table candidate
    was rejected — the machine-readable counterparts of the match
    conditions of paper sections 4.1-4.2 and 5.1 plus the planner-level
    verdicts (index filter, quarantine, cost). *)
type reason =
  | Child_mismatch              (** no child pairing exists (4.1.1 cond. 1) *)
  | Outputs_not_covered         (** interior match can't replace the box *)
  | Extra_not_lossless          (** extra subsumer child not RI-lossless *)
  | Summary_pred_unmatched      (** summary filtered rows away (cond. 2) *)
  | Pred_not_derivable of string   (** conditions 3/5 *)
  | Output_not_derivable        (** condition 4, applied lazily *)
  | Grouping_not_translatable   (** grouping column lost (4.1.2) *)
  | Agg_not_preserved           (** aggregate argument lost (4.1.2) *)
  | Agg_rule_inapplicable of string  (** derivation rules (a)-(g) all fail *)
  | No_covering_cuboid          (** 5.1/5.2 cuboid selection failed *)
  | Cost_not_better of float * float  (** candidate cost, current cost *)
  | Filtered_by_index           (** plancache candidate filter *)
  | Quarantined                 (** guard quarantine for this fingerprint *)
  | Contained_error of string   (** sandboxed exception (lib/guard) *)
  | Ir_invalid of string        (** static IR validation failed (lib/lint) *)
  | Unsupported of string       (** a shape the matcher deliberately rejects *)
  | Prove_unknown of string     (** static prover could not certify a rewrite *)

(** Stable kebab-case identifier, e.g. ["predicate-not-derivable"]. *)
val reason_code : reason -> string

(** Human-readable sentence (what EXPLAIN prints). *)
val describe : reason -> string

type outcome = Step | Accepted of string | Rejected of reason

type span = {
  sp_kind : string;             (** e.g. "navigate", "candidate", "pattern" *)
  sp_label : string;
  mutable sp_ms : float;        (** 0 for leaf events *)
  mutable sp_outcome : outcome;
  mutable sp_children : span list;  (** newest first *)
}

type t

val create : unit -> t

(** Run [f] inside a new child span of the innermost open span; the span's
    wall-clock duration is recorded, also on exception. [result] maps the
    value of [f] to the span's outcome. With [None] as the trace this is
    exactly [f ()]. *)
val with_span :
  t option -> kind:string -> label:string -> ?result:('a -> outcome) ->
  (unit -> 'a) -> 'a

(** Leaf spans. Consecutive identical leaves under one parent are deduped. *)
val event : t option -> kind:string -> label:string -> unit

val accept : t option -> kind:string -> label:string -> string -> unit
val reject : t option -> kind:string -> label:string -> reason -> unit

(** Top-level spans, oldest first. *)
val roots : t -> span list

(** Every typed rejection in the trace, pre-order. *)
val rejections : t -> reason list

(** Indented tree rendering. *)
val render : t -> string

(** Bounded buffer of recent labelled traces (per session). *)
type ring

val ring : ?capacity:int -> unit -> ring
val push : ring -> string -> t -> unit

(** Oldest first. *)
val items : ring -> (string * t) list

val ring_length : ring -> int
val clear : ring -> unit
