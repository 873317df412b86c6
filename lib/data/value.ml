type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Date of int

type ty = Tint | Tfloat | Tstr | Tbool | Tdate

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

let ty_to_string = function
  | Tint -> "INT"
  | Tfloat -> "FLOAT"
  | Tstr -> "VARCHAR"
  | Tbool -> "BOOLEAN"
  | Tdate -> "DATE"

let ty_of_string s =
  match String.uppercase_ascii s with
  | "INT" | "INTEGER" | "BIGINT" | "SMALLINT" -> Some Tint
  | "FLOAT" | "REAL" | "DOUBLE" | "DECIMAL" | "NUMERIC" -> Some Tfloat
  | "VARCHAR" | "CHAR" | "TEXT" | "STRING" -> Some Tstr
  | "BOOLEAN" | "BOOL" -> Some Tbool
  | "DATE" -> Some Tdate
  | _ -> None

let date y m d =
  if m < 1 || m > 12 then invalid_arg "Value.date: month out of range";
  if d < 1 || d > 31 then invalid_arg "Value.date: day out of range";
  Date (((y * 100) + m) * 100 + d)

let year = function
  | Date e -> Int (e / 10000)
  | Null -> Null
  | _ -> type_error "year() applied to non-date value"

let month = function
  | Date e -> Int (e / 100 mod 100)
  | Null -> Null
  | _ -> type_error "month() applied to non-date value"

let day = function
  | Date e -> Int (e mod 100)
  | Null -> Null
  | _ -> type_error "day() applied to non-date value"

let tag = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | Str _ -> 3
  | Date _ -> 4

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Int x, Int y -> Stdlib.compare x y
  | Float x, Float y -> Stdlib.compare x y
  | Int x, Float y -> Stdlib.compare (float_of_int x) y
  | Float x, Int y -> Stdlib.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Stdlib.compare x y
  | Date x, Date y -> Stdlib.compare x y
  | a, b -> Stdlib.compare (tag a) (tag b)

let equal a b = compare a b = 0

(* A 64-bit finalizer (murmur3's fmix, constants cut to OCaml's 63-bit
   ints): spreads every input bit over the low bits a hash table masks. *)
let mix h =
  let h = h lxor (h lsr 33) in
  let h = h * 0x3f51afd7ed558ccd in
  let h = h lxor (h lsr 33) in
  let h = h * 0x04ceb9fe1a85ec53 in
  (h lxor (h lsr 33)) land max_int

(* Int and Float hash through one float-bits mix, so numerically equal
   values hash equally; -0.0 and every NaN are first normalized to the
   value [compare] treats them as. Nothing here allocates: the bits stay
   unboxed in native code. *)
let[@inline] hash_float x =
  let x = if x = 0.0 then 0.0 else if Float.is_nan x then Float.nan else x in
  mix (Int64.to_int (Int64.bits_of_float x))

let hash = function
  | Null -> 17
  | Int x -> hash_float (float_of_int x)
  | Float x -> hash_float x
  | Str s -> Hashtbl.hash s
  | Bool b -> if b then 0x2b else 0x2a
  | Date d -> mix (d lxor 0x5a17)

(* Constructor match, NOT polymorphic [v = Null]: structural equality
   descends into boxed floats, where a NaN payload makes (=) lie
   (nan = nan is false), and costs a generic compare per call on the
   aggregation hot path. *)
let is_null = function Null -> true | _ -> false

let cmp3 op a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | _ -> Bool (op (compare a b) 0)

let sql_eq = cmp3 ( = )
let sql_neq = cmp3 ( <> )
let sql_lt = cmp3 ( < )
let sql_le = cmp3 ( <= )
let sql_gt = cmp3 ( > )
let sql_ge = cmp3 ( >= )

let sql_and a b =
  match (a, b) with
  | Bool false, _ | _, Bool false -> Bool false
  | Bool true, Bool true -> Bool true
  | (Null | Bool _), (Null | Bool _) -> Null
  | _ -> type_error "AND applied to non-boolean value"

let sql_or a b =
  match (a, b) with
  | Bool true, _ | _, Bool true -> Bool true
  | Bool false, Bool false -> Bool false
  | (Null | Bool _), (Null | Bool _) -> Null
  | _ -> type_error "OR applied to non-boolean value"

let sql_not = function
  | Bool b -> Bool (not b)
  | Null -> Null
  | _ -> type_error "NOT applied to non-boolean value"

let arith name fi ff a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (fi x y)
  | Float x, Float y -> Float (ff x y)
  | Int x, Float y -> Float (ff (float_of_int x) y)
  | Float x, Int y -> Float (ff x (float_of_int y))
  | _ -> type_error "%s applied to non-numeric value" name

let add = arith "+" ( + ) ( +. )
let sub = arith "-" ( - ) ( -. )
let mul = arith "*" ( * ) ( *. )

let div a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int x, Int y ->
      if y = 0 then raise Division_by_zero else Int (x / y)
  | _ -> arith "/" (fun _ _ -> assert false) ( /. ) a b

let neg = function
  | Null -> Null
  | Int x -> Int (-x)
  | Float x -> Float (-.x)
  | _ -> type_error "unary - applied to non-numeric value"

let concat a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Str x, Str y -> Str (x ^ y)
  | _ -> type_error "|| applied to non-string value"

let is_true = function Bool true -> true | _ -> false

let to_float = function
  | Int x -> float_of_int x
  | Float x -> x
  | Null -> nan
  | _ -> type_error "numeric value expected"

let to_string = function
  | Null -> "NULL"
  | Int x -> string_of_int x
  | Float x ->
      if Float.is_integer x && Float.abs x < 1e15 then
        Printf.sprintf "%.1f" x
      else Printf.sprintf "%g" x
  | Str s -> s
  | Bool b -> if b then "TRUE" else "FALSE"
  | Date e ->
      Printf.sprintf "%04d-%02d-%02d" (e / 10000) (e / 100 mod 100) (e mod 100)

let pp fmt v = Format.pp_print_string fmt (to_string v)
