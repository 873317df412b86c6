(* JSON codec for values, shared by WAL records and the server wire
   (Server.Wire): dates as {"date": n}, non-finite floats as
   {"float": "nan"|"inf"|"-inf"}. *)

module J = Obs.Json
module V = Data.Value

let value_to_json (v : V.t) : J.t =
  match v with
  | V.Null -> J.Null
  | V.Int n -> J.Int n
  | V.Float x ->
      if Float.is_finite x then J.Float x
      else
        J.Obj
          [
            ( "float",
              J.Str
                (if Float.is_nan x then "nan"
                 else if x > 0. then "inf"
                 else "-inf") );
          ]
  | V.Str s -> J.Str s
  | V.Bool b -> J.Bool b
  | V.Date d -> J.Obj [ ("date", J.Int d) ]

let value_of_json (j : J.t) : (V.t, string) result =
  match j with
  | J.Null -> Ok V.Null
  | J.Int n -> Ok (V.Int n)
  | J.Float x | J.Num x -> Ok (V.Float x)
  | J.Str s -> Ok (V.Str s)
  | J.Bool b -> Ok (V.Bool b)
  | J.Obj [ ("date", J.Int d) ] -> Ok (V.Date d)
  | J.Obj [ ("float", J.Str "nan") ] -> Ok (V.Float Float.nan)
  | J.Obj [ ("float", J.Str "inf") ] -> Ok (V.Float Float.infinity)
  | J.Obj [ ("float", J.Str "-inf") ] -> Ok (V.Float Float.neg_infinity)
  | other -> Error ("not a value: " ^ J.to_string other)

let row_to_json (row : Data.Relation.row) : J.t =
  J.List (Array.to_list (Array.map value_to_json row))

let row_of_json (j : J.t) : (Data.Relation.row, string) result =
  match j with
  | J.List vs ->
      let rec go acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | v :: rest -> (
            match value_of_json v with
            | Ok v -> go (v :: acc) rest
            | Error _ as e -> e)
      in
      go [] vs
  | other -> Error ("not a row: " ^ J.to_string other)

let rows_to_json rows = J.List (List.map row_to_json rows)

let rows_of_json (j : J.t) : (Data.Relation.row list, string) result =
  match j with
  | J.List rs ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | r :: rest -> (
            match row_of_json r with
            | Ok row -> go (row :: acc) rest
            | Error _ as e -> e)
      in
      go [] rs
  | other -> Error ("not a row list: " ^ J.to_string other)
