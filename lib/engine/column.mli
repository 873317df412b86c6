(** Typed column vectors: the vectorized executor's batches and the one
    form {!Db} stores tables and summaries in (DESIGN.md §15).

    A column holds one unboxed buffer per runtime type — an int Bigarray
    for INT/DATE, a float64 Bigarray for FLOAT (and INT/FLOAT mixes,
    promoted), dictionary-encoded strings, a byte vector for booleans —
    plus an optional byte-per-row validity mask (['\001'] = NULL). Columns
    that defy classification stay boxed, and the executor's kernels
    degrade per column rather than rejecting the batch.

    Numeric data lives in Bigarrays (outside the OCaml heap) so the GC
    neither scans column payloads nor paces collection against the large
    transient buffers produced per batch. A stored batch is immutable and
    permanently allocated; nothing here caches. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** Uninitialized buffers (contents unspecified until written). *)
val icreate : int -> ints

val fcreate : int -> floats

(** {2 Scratch arena}

    Kernel-transient buffers are bump-allocated from pooled chunks while a
    domain-local arena is armed — zero allocation in steady state. Arm it
    for the duration of one executor run; buffers handed out in between
    must not escape the [scratch_begin]/[scratch_end] bracket. Nestable;
    the outermost [scratch_end] recycles every chunk and records the bytes
    the run requested in the [exec.scratch_bytes] histogram. Without an
    armed arena, scratch requests fall back to permanent allocations. *)

val scratch_begin : unit -> unit
val scratch_end : unit -> unit

(** Uninitialized scratch buffers (arena-backed when armed). *)
val scratch_ints : int -> ints

val scratch_floats : int -> floats

type data =
  | Ints of ints
  | Floats of floats
  | Dates of ints  (** yyyymmdd, as in {!Data.Value.Date} *)
  | Bools of Bytes.t  (** ['\001'] = true *)
  | Dict of ints * string array  (** per-row code, dictionary *)
  | Boxed of Data.Value.t array

type t = { data : data; nulls : Bytes.t option }
(** [nulls = None] means no NULL anywhere; data under a set mask byte is
    zero padding. *)

type batch = { names : string array; cols : t array; nrows : int }

val length : t -> int
val is_null : t -> int -> bool

(** Every row is NULL (vacuously so for an empty column). *)
val is_all_null : t -> bool

(** Boxed view of one slot (NULL-aware). *)
val get : t -> int -> Data.Value.t

val of_values : Data.Value.t array -> t
val to_values : t -> Data.Value.t array

(** [const v n] broadcasts a scalar to an [n]-row column. *)
val const : Data.Value.t -> int -> t

(** One-pass columnar decode of a relation. *)
val of_relation : Data.Relation.t -> batch

val to_relation : batch -> Data.Relation.t

(** A copy of the batch in permanent buffers — what an executor result
    must become before the scratch arena it was computed in recycles.
    Boxed columns are re-classified ({!of_values}). *)
val persist : batch -> batch

(** Distinct values of a column, NULL counting as one value: the count a
    hash table of its boxed values would hold ([-0.0] is [0.0], every NaN
    is one value). Typed columns are counted without boxing, through a
    byte bitmap over a small integer span or an open-addressing set;
    dictionary columns count their codes, so a dictionary's entries must
    be distinct (as {!of_values} and {!concat} keep them). *)
val ndv : t -> int

(** [int_bounds n a nulls] is the least and greatest value among the first
    [n] rows of [a] that [nulls] does not mark NULL; [(max_int, min_int)]
    when there is none. *)
val int_bounds : int -> ints -> Bytes.t option -> int * int

(** [gather c idx k] takes rows of [c] at [idx.(0..k-1)], in order. Adds
    [k] to the [exec.gathered_values] counter, as {!gather_index} does. *)
val gather : t -> ints -> int -> t

(** [gather_index r pos k] is [r.{pos.{i}}] for [i < k]: a row-index
    vector composed with a selection over its rows. *)
val gather_index : ints -> ints -> int -> ints

(** [with_nulls c m] is [c] with every row [m] marks ['\001'] NULL (the
    data under it zeroed). [m] must already mark [c]'s own NULLs. *)
val with_nulls : t -> Bytes.t -> t

(** Concatenate columns, typed when every piece that is not all NULL has
    one physical kind, re-classified from boxed values otherwise. Dictionary pieces with
    different dictionaries merge into one: the first piece's entries, then
    each new string in order of first appearance, so entries stay
    distinct. Pieces sharing the first one's dictionary keep their codes.
    Allocates from the scratch arena when one is armed. *)
val concat : t list -> t
