(** An in-memory database: a catalog plus one column batch per table.

    Each table and summary table is held as one immutable, permanently
    allocated {!Column.batch} — the only stored form. The executor scans
    it directly; a boxed {!Data.Relation.t} is built only on request
    ({!get}), for the reference oracle, CSV export, recovery's payload
    check and tests. Row counts and distinct-value counts are
    computed from the typed columns. The row count is always current; the
    distinct counts are recounted whenever the row count has moved more
    than 5% and more than 100 rows from the count at their last recount.

    Functional updates; callers thread the value (the CLI session holds a
    ref). Summary-table contents live here too, under their table name.
    Tables are keyed by their declared (catalog) name, compared with [=],
    and a stored batch's column names are the table's declared column
    names: a name the user typed is resolved through {!Catalog} first. *)

type t

val create : Catalog.t -> t
val catalog : t -> Catalog.t
val with_catalog : t -> Catalog.t -> t

(** [put db name rel] decodes [rel] once and installs it as the table's
    contents, refreshing its row-count and distinct-value statistics. *)
val put : t -> string -> Data.Relation.t -> t

(** [put_batch db name b] installs an executor result as the table's
    contents. [b] must not be arena-backed ({!Exec.run_batch} copies its
    result out). *)
val put_batch : t -> string -> Column.batch -> t

(** {!put_batch} that sets the row count but counts no distinct values:
    for a short-lived database read by the rewriter's cost model, whose
    tables are installed again, counted, in the database that keeps them. *)
val put_batch_uncounted : t -> string -> Column.batch -> t

(** [append db name delta] adds [delta]'s rows (in the table's column
    order) to the stored batch; a table without contents takes [delta] as
    {!put} would. When every column is numeric and NULL-free, the columns
    grow in place into spare capacity, so a stream of small appends costs
    the rows appended; otherwise they are concatenated. Must not run
    inside an executor run (the concatenation would be arena-backed). *)
val append : t -> string -> Data.Relation.t -> t

(** The stored batch. Raises [Invalid_argument] for a table without
    contents. *)
val batch : t -> string -> Column.batch

(** Row count of the stored batch, without building rows. Raises
    [Invalid_argument] for a table without contents. *)
val cardinality : t -> string -> int

(** Build the table's rows as a relation. Every row built counts in the
    [db.materialized_rows] counter. *)
val get : t -> string -> Data.Relation.t option

val get_exn : t -> string -> Data.Relation.t
val drop : t -> string -> t

(** [of_tables cat tables] bulk-loads [(name, relation)] pairs. *)
val of_tables : Catalog.t -> (string * Data.Relation.t) list -> t

(** [of_batches cat batches] bulk-loads [(name, batch)] pairs without
    building rows; each batch must not be arena-backed, as for
    {!put_batch}. *)
val of_batches : Catalog.t -> (string * Column.batch) list -> t
