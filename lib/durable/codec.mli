(** JSON codec for WAL records' row payloads (COPY FROM logs its rows).

    Values follow the same conventions as the server wire protocol so the
    two on-disk/on-wire schemas stay mutually readable: dates as
    [{"date": yyyymmdd}], non-finite floats as [{"float": "nan"|"inf"|"-inf"}],
    everything else as the corresponding JSON scalar. The durability layer
    keeps its own copy rather than depending on [lib/server] — a headless
    (no-server) build must still recover its data. Checkpoints do not use
    it: they store typed chunks ({!Chunk}). *)

(** Rows are arrays of values rendered as JSON lists. *)
val rows_to_json : Data.Relation.row list -> Obs.Json.t

val rows_of_json : Obs.Json.t -> (Data.Relation.row list, string) result
