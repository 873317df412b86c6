(** In-memory relations: a named-column schema plus a bag of rows.

    Rows are value arrays positionally aligned with the schema. Relations use
    bag (multiset) semantics throughout, matching SQL. They are the boxed
    interchange form — query results, DML deltas, CSV and checkpoint rows;
    stored tables live as typed column batches in [Engine.Db]. *)

type row = Value.t array

type t

(** [create cols rows] builds a relation. Raises [Invalid_argument] if any
    row's width differs from the schema width. *)
val create : string list -> row list -> t

val empty : string list -> t

val columns : t -> string array
val arity : t -> int
val cardinality : t -> int
val rows : t -> row list
val rows_array : t -> row array

(** [column_index r name] is the position of [name] (case-insensitive).
    Raises [Not_found] if absent. *)
val column_index : t -> string -> int

val mem_column : t -> string -> bool

(** [project r names] keeps (and reorders to) the given columns. *)
val project : t -> string list -> t

val append : t -> row list -> t
val filter : (row -> bool) -> t -> t
val map_rows : (row -> row) -> t -> t

(** Stable sort by the given comparison on rows. *)
val sort : (row -> row -> int) -> t -> t

(** Remove duplicate rows (bag -> set), preserving first occurrences. *)
val distinct : t -> t

(** Multiset difference: remove one occurrence of each row of [b] from [a]
    (rows of [b] absent from [a] are ignored). Column names must agree. *)
val bag_diff : t -> t -> t

(** Bag equality: same columns (order-sensitive) and same multiset of rows. *)
val bag_equal : t -> t -> bool

(** Bag equality tolerating relative floating-point error [rel_eps]
    (default 1e-9) on float values — re-aggregating partial sums in a
    different order legitimately perturbs low bits. *)
val bag_equal_approx : ?rel_eps:float -> t -> t -> bool

(** Bag equality after reordering [b]'s columns to match [a]'s names.
    Returns [false] when the column name sets differ. *)
val bag_equal_by_name : t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
