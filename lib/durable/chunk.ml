(* Range and dictionary chunks: a stored column batch as raw payloads.

   range chunk := "ASTQRNG1" n:i64 ncols:i64 column*
   column      := tag:u8 masked:u8 mask:u8{n if masked} payload
   payload     := i64{n}                     int, date, dict codes
                | i64{n}                     float bits
                | u8{n}                      bool ('\001' = true)
                | value{n}                   boxed
   value       := 0 | 1 i64 | 2 i64 | 3 len:i64 byte{len} | 4 u8 | 5 i64
                  (NULL, INT, FLOAT bits, STR, BOOL, DATE)
   dict chunk  := "ASTQDCT1" count:i64 (len:i64 byte{len}){count}

   Every integer is little-endian. Data under a set mask byte is written as
   stored (zero padding), so decoding reproduces the batch bit for bit. *)

module C = Engine.Column
module V = Data.Value
module BA1 = Bigarray.Array1

let rows = 16_384

type tag = Tint | Tfloat | Tdate | Tbool | Tdict | Tboxed
type kind = { tag : tag; masked : bool }

let tags = [| Tint; Tfloat; Tdate; Tbool; Tdict; Tboxed |]
let tag_names = [| "int"; "float"; "date"; "bool"; "dict"; "boxed" |]

let tag_code t =
  let rec find i = if tags.(i) = t then i else find (i + 1) in
  find 0

let kind_of (c : C.t) =
  let tag =
    match c.C.data with
    | C.Ints _ -> Tint
    | C.Floats _ -> Tfloat
    | C.Dates _ -> Tdate
    | C.Bools _ -> Tbool
    | C.Dict _ -> Tdict
    | C.Boxed _ -> Tboxed
  in
  { tag; masked = c.C.nulls <> None }

let kind_to_string k = tag_names.(tag_code k.tag) ^ if k.masked then "?" else ""
let kinds (b : C.batch) = List.map (fun c -> kind_to_string (kind_of c)) (Array.to_list b.C.cols)

let range_magic = "ASTQRNG1"
let dict_magic = "ASTQDCT1"

(* ---------------- encode ---------------- *)

let set_int buf pos x = Bytes.set_int64_le buf pos (Int64.of_int x)

let value_size = function
  | V.Null -> 1
  | V.Int _ | V.Float _ | V.Date _ -> 9
  | V.Bool _ -> 2
  | V.Str s -> 9 + String.length s

let column_size (c : C.t) lo n =
  let mask = if c.C.nulls = None then 0 else n in
  let payload =
    match c.C.data with
    | C.Ints _ | C.Dates _ | C.Floats _ | C.Dict _ -> 8 * n
    | C.Bools _ -> n
    | C.Boxed a ->
        let s = ref 0 in
        for i = lo to lo + n - 1 do
          s := !s + value_size a.(i)
        done;
        !s
  in
  2 + mask + payload

let put_value buf pos v =
  let tagged t = Bytes.set_uint8 buf pos t in
  match v with
  | V.Null -> tagged 0; pos + 1
  | V.Int x -> tagged 1; set_int buf (pos + 1) x; pos + 9
  | V.Float x -> tagged 2; Bytes.set_int64_le buf (pos + 1) (Int64.bits_of_float x); pos + 9
  | V.Str s ->
      tagged 3;
      set_int buf (pos + 1) (String.length s);
      Bytes.blit_string s 0 buf (pos + 9) (String.length s);
      pos + 9 + String.length s
  | V.Bool b -> tagged 4; Bytes.set_uint8 buf (pos + 1) (Bool.to_int b); pos + 2
  | V.Date x -> tagged 5; set_int buf (pos + 1) x; pos + 9

(* column [c]'s rows [lo, lo+n) at [pos]; the position after them *)
let put_column buf pos (c : C.t) lo n =
  let k = kind_of c in
  Bytes.set_uint8 buf pos (tag_code k.tag);
  Bytes.set_uint8 buf (pos + 1) (Bool.to_int k.masked);
  let pos = pos + 2 in
  let pos =
    match c.C.nulls with
    | None -> pos
    | Some m ->
        Bytes.blit m lo buf pos n;
        pos + n
  in
  match c.C.data with
  | C.Ints a | C.Dates a | C.Dict (a, _) ->
      for i = 0 to n - 1 do
        set_int buf (pos + (8 * i)) (BA1.unsafe_get a (lo + i))
      done;
      pos + (8 * n)
  | C.Floats a ->
      for i = 0 to n - 1 do
        Bytes.set_int64_le buf (pos + (8 * i)) (Int64.bits_of_float (BA1.unsafe_get a (lo + i)))
      done;
      pos + (8 * n)
  | C.Bools b ->
      Bytes.blit b lo buf pos n;
      pos + n
  | C.Boxed a ->
      let pos = ref pos in
      for i = lo to lo + n - 1 do
        pos := put_value buf !pos a.(i)
      done;
      !pos

let encode_range (b : C.batch) lo n =
  let size = Array.fold_left (fun s c -> s + column_size c lo n) 24 b.C.cols in
  let buf = Bytes.create size in
  Bytes.blit_string range_magic 0 buf 0 8;
  set_int buf 8 n;
  set_int buf 16 (Array.length b.C.cols);
  let pos = Array.fold_left (fun pos c -> put_column buf pos c lo n) 24 b.C.cols in
  assert (pos = size);
  buf

let encode_dict (d : string array) =
  let size = Array.fold_left (fun s x -> s + 8 + String.length x) 16 d in
  let buf = Bytes.create size in
  Bytes.blit_string dict_magic 0 buf 0 8;
  set_int buf 8 (Array.length d);
  ignore
    (Array.fold_left
       (fun pos x ->
         set_int buf pos (String.length x);
         Bytes.blit_string x 0 buf (pos + 8) (String.length x);
         pos + 8 + String.length x)
       16 d);
  buf

(* ---------------- decode ---------------- *)

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

(* A cursor over a chunk's bytes; reading past the end is malformed. *)
type cursor = { s : string; mutable pos : int }

let need c n = if n < 0 || c.pos + n > String.length c.s then malformed "truncated chunk"

let get_i64 c =
  need c 8;
  let x = String.get_int64_le c.s c.pos in
  c.pos <- c.pos + 8;
  x

let get_int c = Int64.to_int (get_i64 c)

let get_u8 c =
  need c 1;
  let x = String.get_uint8 c.s c.pos in
  c.pos <- c.pos + 1;
  x

let get_string c n =
  need c n;
  let x = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  x

let expect_magic c magic =
  if get_string c 8 <> magic then malformed "not a %s chunk" magic

let get_value c =
  match get_u8 c with
  | 0 -> V.Null
  | 1 -> V.Int (get_int c)
  | 2 -> V.Float (Int64.float_of_bits (get_i64 c))
  | 3 -> V.Str (get_string c (get_int c))
  | 4 -> V.Bool (get_u8 c <> 0)
  | 5 -> V.Date (get_int c)
  | t -> malformed "unknown value tag %d" t

let decode_dict s =
  let c = { s; pos = 0 } in
  match
    expect_magic c dict_magic;
    let n = get_int c in
    if n < 0 || n > String.length s then malformed "bad dictionary size %d" n;
    let d = Array.init n (fun _ -> get_string c (get_int c)) in
    if c.pos <> String.length s then malformed "trailing bytes";
    d
  with
  | d -> Ok d
  | exception Malformed m -> Error m

(* the typed buffer one column decodes into *)
let alloc k n dicts =
  match k.tag with
  | Tint -> (C.Ints (C.icreate n), dicts)
  | Tdate -> (C.Dates (C.icreate n), dicts)
  | Tfloat -> (C.Floats (C.fcreate n), dicts)
  | Tbool -> (C.Bools (Bytes.create n), dicts)
  | Tboxed -> (C.Boxed (Array.make n V.Null), dicts)
  | Tdict -> (
      match dicts with
      | d :: rest -> (C.Dict (C.icreate n, d), rest)
      | [] -> malformed "a dict column without a dictionary")

(* one range chunk's column into [data]/[mask] from row [off] on *)
let get_column c k data mask off n =
  let tag = get_u8 c and masked = get_u8 c <> 0 in
  if tag >= Array.length tags || tags.(tag) <> k.tag || masked <> k.masked then
    malformed "column kind differs from the manifest";
  Option.iter
    (fun m ->
      need c n;
      Bytes.blit_string c.s c.pos m off n;
      c.pos <- c.pos + n)
    mask;
  match data with
  | C.Ints a | C.Dates a | C.Dict (a, _) ->
      need c (8 * n);
      for i = 0 to n - 1 do
        BA1.unsafe_set a (off + i) (Int64.to_int (String.get_int64_le c.s (c.pos + (8 * i))))
      done;
      c.pos <- c.pos + (8 * n)
  | C.Floats a ->
      need c (8 * n);
      for i = 0 to n - 1 do
        BA1.unsafe_set a (off + i)
          (Int64.float_of_bits (String.get_int64_le c.s (c.pos + (8 * i))))
      done;
      c.pos <- c.pos + (8 * n)
  | C.Bools b ->
      need c n;
      Bytes.blit_string c.s c.pos b off n;
      c.pos <- c.pos + n
  | C.Boxed a ->
      for i = 0 to n - 1 do
        a.(off + i) <- get_value c
      done

let kind_of_string s =
  let masked = String.ends_with ~suffix:"?" s in
  let base = if masked then String.sub s 0 (String.length s - 1) else s in
  let rec find i =
    if i = Array.length tag_names then malformed "unknown column kind %S" s
    else if tag_names.(i) = base then { tag = tags.(i); masked }
    else find (i + 1)
  in
  find 0

let decode ~names ~kinds ~nrows ~dicts ~read ranges =
  match
    let kinds = Array.of_list (List.map kind_of_string kinds) in
    let ncols = Array.length kinds in
    if Array.length names <> ncols then malformed "names and kinds differ in count";
    (* bounds the allocations below by the chunks named *)
    if nrows < 0 || List.length ranges <> (nrows + rows - 1) / rows then
      malformed "%d chunks cannot hold %d rows" (List.length ranges) nrows;
    let dicts = ref dicts in
    let datas =
      Array.map
        (fun k ->
          let d, rest = alloc k nrows !dicts in
          dicts := rest;
          d)
        kinds
    in
    if !dicts <> [] then malformed "more dictionaries than dict columns";
    let masks = Array.map (fun k -> if k.masked then Some (Bytes.create nrows) else None) kinds in
    let off =
      List.fold_left
        (fun off name ->
          let s = match read name with Ok s -> s | Error m -> raise (Malformed m) in
          let c = { s; pos = 0 } in
          expect_magic c range_magic;
          let n = get_int c in
          if n <> min rows (nrows - off) || n <= 0 then malformed "chunk %s holds %d rows" name n;
          if get_int c <> ncols then malformed "chunk %s: column count" name;
          Array.iteri (fun i k -> get_column c k datas.(i) masks.(i) off n) kinds;
          if c.pos <> String.length s then malformed "chunk %s: trailing bytes" name;
          off + n)
        0 ranges
    in
    if off <> nrows then malformed "chunks hold %d of %d rows" off nrows;
    { C.names; cols = Array.map2 (fun data nulls -> { C.data; nulls }) datas masks; nrows }
  with
  | b -> Ok b
  | exception Malformed m -> Error m
