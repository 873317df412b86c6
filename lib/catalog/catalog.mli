(** Schema catalog: table definitions, integrity constraints, statistics.

    The matching algorithm consults the catalog for the semantic facts it
    needs: primary/unique keys (losslessness and 1:N joins), referential
    integrity constraints (extra-join elimination, paper §4.1.1 condition 1),
    and column nullability (aggregate derivation rules, §4.1.2). *)

type column = { col_name : string; col_ty : Data.Value.ty; nullable : bool }

type foreign_key = {
  fk_cols : string list;       (** referencing columns, in this table *)
  fk_ref_table : string;       (** referenced table *)
  fk_ref_cols : string list;   (** referenced columns (a key of that table) *)
}

type table = {
  tbl_name : string;
  tbl_cols : column list;
  primary_key : string list;          (** [[]] when none *)
  unique_keys : string list list;     (** additional unique constraints *)
  foreign_keys : foreign_key list;
}

type t

val empty : t

(** [add_table cat tbl] registers a table. Raises [Invalid_argument] when a
    table of that name exists, when key/FK columns are undeclared, or when an
    FK references an unknown table or a non-key column set. *)
val add_table : t -> table -> t

val find_table : t -> string -> table option

(** [declared_table cat name] is [name] as its table was declared (looked
    up as {!find_table} does), or [name] itself when no table has it. *)
val declared_table : t -> string -> string

(** [remove_table cat name] drops a table's definition and statistics.
    Raises [Invalid_argument] when another table declares a foreign key
    referencing it. *)
val remove_table : t -> string -> t
val table_exn : t -> string -> table
val tables : t -> table list
val mem_table : t -> string -> bool

(** Case-insensitive column lookup within a table. The catalog is where a
    user-typed table or column name is looked up; below it, names are
    compared in their declared spelling. *)
val find_column : table -> string -> column option

val column_names : table -> string list

(** [declared_columns tbl cols] spells each of [cols] as [tbl] declares it
    (looked up as {!find_column} does); a name [tbl] does not declare stays
    as given. {!add_table} stores key and foreign-key column lists, and
    foreign-key targets, in their declared spelling. *)
val declared_columns : table -> string list -> string list

(** [is_unique_key cat tname cols] — do [cols] contain the primary key or a
    unique key of [tname]? (A superset of a key is still a key.) Column
    names compare with [=], in their declared spelling. *)
val is_unique_key : t -> string -> string list -> bool

(** [ri_holds cat ~from_table ~from_cols ~to_table ~to_cols] — is there a
    declared RI constraint from [from_table].[from_cols] to
    [to_table].[to_cols], with all referencing columns non-nullable, and
    [to_cols] a unique key of [to_table]? The pairs may come in any order.
    Column names compare with [=]: pass them in their declared spelling,
    as the QGM holds them. *)
val ri_holds :
  t ->
  from_table:string ->
  from_cols:string list ->
  to_table:string ->
  to_cols:string list ->
  bool

val column_nullable : t -> string -> string -> bool

(** {1 Statistics} — simple per-table cardinalities for the cost model. *)

val set_row_count : t -> string -> int -> t
val row_count : t -> string -> int option

(** Approximate number of distinct values of a column (for the cost
    model). *)
val set_col_ndv : t -> string -> string -> int -> t

val col_ndv : t -> string -> string -> int option

val pp : Format.formatter -> t -> unit
