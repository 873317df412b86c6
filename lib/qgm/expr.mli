(** QGM scalar expressions, generic over the column-reference type.

    The same expression shape is reused in three contexts: box expressions
    over quantifier inputs ([Qref.t]), translated expressions over subsumer
    inputs, and compensation expressions over below-level outputs. [Between],
    [IN]-lists and [NOT] are desugared by the builder, so the matcher only
    sees this small core. *)

type agg_fn = Count_star | Count | Sum | Avg | Min | Max

type agg = { fn : agg_fn; distinct : bool }

type 'c t =
  | Const of Data.Value.t
  | Col of 'c
  | Unop of string * 'c t                  (** "-" or "NOT" *)
  | Binop of string * 'c t * 'c t
  | Fncall of string * 'c t list
  | Agg of agg * 'c t option               (** [None] only for COUNT star *)
  | Is_null of 'c t * bool                 (** [true] = IS NULL *)
  | Case of ('c t * 'c t) list * 'c t option

val agg_fn_to_string : agg_fn -> string

(** {1 Traversals} *)

val map_col : ('a -> 'b) -> 'a t -> 'b t

(** Column substitution that may fail; [None] leaves propagate. *)
val subst_col : ('a -> 'b t option) -> 'a t -> 'b t option

val fold_cols : ('acc -> 'c -> 'acc) -> 'acc -> 'c t -> 'acc
val cols : 'c t -> 'c list
val contains_agg : 'c t -> bool
val exists_sub : ('c t -> bool) -> 'c t -> bool

(** Direct sub-expressions of a node. *)
val children : 'c t -> 'c t list

(** Rebuild a node with new children (same arity required). *)
val with_children : 'c t -> 'c t list -> 'c t

(** {1 Semantic normalization}

    Constant folding, flattening and sorting of commutative operator chains
    ([+], [*], [AND], [OR], [=], [<>]), and direction-normalization of
    comparisons ([>] becomes flipped [<], [>=] becomes flipped [<=]). Two
    expressions are semantically compared by normalizing both and testing
    structural equality; column references should be canonicalized (e.g. to
    equivalence-class representatives) beforehand. *)
val normalize : 'c t -> 'c t

val equal_norm : 'c t -> 'c t -> bool

(** Pretty-print with a column renderer (for diagnostics). *)
val pp : (Format.formatter -> 'c -> unit) -> Format.formatter -> 'c t -> unit

val to_string : ('c -> string) -> 'c t -> string
