(** The typed chunk codec of checkpoints (DESIGN.md §14).

    A stored {!Engine.Column.batch} is cut into fixed ranges of {!rows}
    rows. One {e range chunk} holds every column of one range as raw
    little-endian payloads: INT and DATE values and dictionary codes as
    int64, floats as their exact IEEE bits, booleans and NULL masks as one
    byte per row, and boxed columns as tagged values. Each
    dictionary-encoded column keeps its dictionary in one separate
    {e dictionary chunk}. Decoding rebuilds the batch bit for bit: the same
    physical kinds, the same masks, the same dictionaries, the same float
    bits.

    Chunks carry no name or digest of their own; {!Checkpoint} names the
    files after the MD5 of these bytes and checks it before decoding. *)

(** Rows per range chunk (the last range of a batch may be shorter). *)
val rows : int

(** Each column's physical kind ({!Engine.Column.data}'s constructor) and
    whether it carries a NULL mask, as written in a checkpoint manifest:
    ["int"], ["float"], ["date"], ["bool"], ["dict"] or ["boxed"],
    suffixed by ["?"] when masked. *)
val kinds : Engine.Column.batch -> string list

(** [encode_range b lo n]: columns of rows [lo .. lo+n-1] of [b]. *)
val encode_range : Engine.Column.batch -> int -> int -> Bytes.t

val encode_dict : string array -> Bytes.t
val decode_dict : string -> (string array, string) result

(** [decode ~names ~kinds ~nrows ~dicts ~read ranges] rebuilds an
    [nrows]-row batch from its range chunks, in order, each fetched with
    [read] one at a time. [kinds] are as {!kinds} wrote them; [dicts]
    holds the dictionary of every ["dict"] column, in column order. Errors
    name the first range chunk or column that disagrees with the
    manifest. *)
val decode :
  names:string array ->
  kinds:string list ->
  nrows:int ->
  dicts:string array list ->
  read:(string -> (string, string) result) ->
  string list ->
  (Engine.Column.batch, string) result
