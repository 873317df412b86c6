(** JSON codec for values: WAL records' row payloads (COPY FROM logs its
    rows) and the server wire protocol ([Server.Wire] calls
    {!value_to_json} and {!value_of_json}), so the on-disk and on-wire
    schemas are one. Dates are [{"date": yyyymmdd}], non-finite floats
    [{"float": "nan"|"inf"|"-inf"}], everything else the corresponding
    JSON scalar. The durability layer does not depend on [lib/server]: a
    headless (no-server) build still recovers its data. Checkpoints do not
    use it: they store typed chunks ({!Chunk}). *)

val value_to_json : Data.Value.t -> Obs.Json.t
val value_of_json : Obs.Json.t -> (Data.Value.t, string) result

(** Rows are arrays of values rendered as JSON lists. *)
val rows_to_json : Data.Relation.row list -> Obs.Json.t

val rows_of_json : Obs.Json.t -> (Data.Relation.row list, string) result
