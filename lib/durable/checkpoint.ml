(* Typed checkpoints: a JSON manifest naming digest-named chunk files.
   Base tables and stale summaries have chunks; a fresh summary is only
   its name and definition, since recovery re-derives it.

   Validity = the manifest parses and decodes, and every base-table chunk
   it names is present with its digest. A torn temp file never carries a
   real name; a manifest or base chunk corrupted in place fails the load,
   and [load_latest] falls back to an older manifest. A damaged stale
   summary chunk costs only that summary's payload: summaries are derived
   state.

   A chunk is written again unless its digest is among the chunks this
   process wrote or verified for the previous checkpoint ([known]): a file
   that merely exists under the right name might be a torn leftover, so a
   name on disk is never trusted on its own. *)

module J = Obs.Json
module V = Data.Value
module C = Engine.Column
module Dset = Set.Make (String)

type summary = { ck_name : string; ck_sql : string; ck_payload : C.batch option }

type table = { ck_table : Catalog.table; ck_batch : C.batch }
type t = { ck_lsn : int; ck_tables : table list; ck_summaries : summary list }
type known = Dset.t

let nothing_known = Dset.empty
let format_version = 2

let m_written = Obs.Metrics.counter "durable.chunks_written"
let m_reused = Obs.Metrics.counter "durable.chunks_reused"
let m_bytes = Obs.Metrics.counter "durable.checkpoint_bytes"

(* ---------------- files ---------------- *)

let name_of_lsn lsn = Printf.sprintf "ckpt-%d.json" lsn

let lsn_of_name name =
  if
    String.length name > 10
    && String.sub name 0 5 = "ckpt-"
    && Filename.check_suffix name ".json"
  then int_of_string_opt (String.sub name 5 (String.length name - 10))
  else None

let files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter_map (fun n ->
             Option.map (fun lsn -> (lsn, n)) (lsn_of_name n))
      |> List.sort (fun (a, _) (b, _) -> compare b a)
      |> List.map (fun (_, n) -> Filename.concat dir n)

let chunk_suffix = ".chunk"
let chunk_file hex = hex ^ chunk_suffix

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | body -> Ok body
  | exception Sys_error m -> Error m

let write_fully fd b len =
  let off = ref 0 and left = ref len in
  while !left > 0 do
    let n = Unix.write fd b !off !left in
    off := !off + n;
    left := !left - n
  done

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dfd ->
      Fun.protect
        ~finally:(fun () -> Unix.close dfd)
        (fun () -> try Unix.fsync dfd with Unix.Unix_error _ -> ())

(* [data] in [name ^ ".tmp"], fsynced; returns (temp path, final path).
   [tear ()] tells whether to leave half the bytes there and die instead. *)
let stage ~tear dir name data =
  let final = Filename.concat dir name in
  let tmp = final ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      if tear () then begin
        (* torn file: half the bytes land in the temp file, then kill -9 —
           the real name never appears *)
        write_fully fd data (Bytes.length data / 2);
        Guard.Fault.crash_now ()
      end;
      write_fully fd data (Bytes.length data);
      Unix.fsync fd);
  Obs.Metrics.add m_bytes (Bytes.length data);
  (tmp, final)

(* ---------------- manifest encode ---------------- *)

let strings ss = J.List (List.map (fun s -> J.Str s) ss)

let schema_fields (tbl : Catalog.table) =
  [
    ("name", J.Str tbl.Catalog.tbl_name);
    ( "cols",
      J.List
        (List.map
           (fun c ->
             J.Obj
               [
                 ("name", J.Str c.Catalog.col_name);
                 ("ty", J.Str (V.ty_to_string c.Catalog.col_ty));
                 ("nullable", J.Bool c.Catalog.nullable);
               ])
           tbl.Catalog.tbl_cols) );
    ("pk", strings tbl.Catalog.primary_key);
    ("unique", J.List (List.map strings tbl.Catalog.unique_keys));
    ( "fks",
      J.List
        (List.map
           (fun fk ->
             J.Obj
               [
                 ("cols", strings fk.Catalog.fk_cols);
                 ("ref_table", J.Str fk.Catalog.fk_ref_table);
                 ("ref_cols", strings fk.Catalog.fk_ref_cols);
               ])
           tbl.Catalog.foreign_keys) );
  ]

(* A batch's manifest fields; [chunk] stores one chunk's bytes and
   returns its name. *)
let payload_fields chunk (b : C.batch) =
  let cols = Array.to_list b.C.cols in
  let dicts =
    List.filter_map
      (fun (c : C.t) ->
        match c.C.data with
        | C.Dict (_, d) -> Some (chunk (Chunk.encode_dict d))
        | _ -> None)
      cols
  in
  let ranges =
    List.init
      ((b.C.nrows + Chunk.rows - 1) / Chunk.rows)
      (fun i ->
        let lo = i * Chunk.rows in
        chunk (Chunk.encode_range b lo (min Chunk.rows (b.C.nrows - lo))))
  in
  [
    ("rows", J.Int b.C.nrows);
    ("names", strings (Array.to_list b.C.names));
    ("kinds", strings (Chunk.kinds b));
    ("dicts", strings dicts);
    ("chunks", strings ranges);
  ]

(* ---------------- manifest decode ---------------- *)

let ( let* ) = Result.bind

let field name j =
  match J.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let as_str = function J.Str s -> Ok s | _ -> Error "expected a string"
let as_int = function J.Int n -> Ok n | _ -> Error "expected an integer"
let as_bool = function J.Bool b -> Ok b | _ -> Error "expected a boolean"
let as_list = function J.List l -> Ok l | _ -> Error "expected a list"

let map_m f l =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
        match f x with Ok y -> go (y :: acc) rest | Error _ as e -> e)
  in
  go [] l

let str_list j =
  let* l = as_list j in
  map_m as_str l

let col_of_json j =
  let* name = Result.bind (field "name" j) as_str in
  let* ty_s = Result.bind (field "ty" j) as_str in
  let* nullable = Result.bind (field "nullable" j) as_bool in
  match V.ty_of_string ty_s with
  | Some ty -> Ok { Catalog.col_name = name; col_ty = ty; nullable }
  | None -> Error (Printf.sprintf "unknown column type %S" ty_s)

let fk_of_json j =
  let* cols = Result.bind (field "cols" j) str_list in
  let* ref_table = Result.bind (field "ref_table" j) as_str in
  let* ref_cols = Result.bind (field "ref_cols" j) str_list in
  Ok { Catalog.fk_cols = cols; fk_ref_table = ref_table; fk_ref_cols = ref_cols }

let schema_of_json j =
  let* name = Result.bind (field "name" j) as_str in
  let* cols = Result.bind (Result.bind (field "cols" j) as_list) (map_m col_of_json) in
  let* pk = Result.bind (field "pk" j) str_list in
  let* unique = Result.bind (Result.bind (field "unique" j) as_list) (map_m str_list) in
  let* fks = Result.bind (Result.bind (field "fks" j) as_list) (map_m fk_of_json) in
  Ok
    {
      Catalog.tbl_name = name;
      tbl_cols = cols;
      primary_key = pk;
      unique_keys = unique;
      foreign_keys = fks;
    }

(* The chunks a manifest names, or [] when it does not parse. *)
let manifest_chunks path =
  let names j =
    List.concat_map
      (fun key -> Result.value (Result.bind (field key j) str_list) ~default:[])
      [ "dicts"; "chunks" ]
  in
  match Result.bind (read_file path) J.of_string with
  | Error _ -> []
  | Ok j ->
      List.concat_map
        (fun key ->
          match J.member key j with
          | Some (J.List entries) -> List.concat_map names entries
          | _ -> [])
        [ "tables"; "summaries" ]

(* ---------------- write ---------------- *)

let prune dir live =
  let keep, old = match files dir with a :: b :: old -> ([ a; b ], old) | l -> (l, []) in
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) old;
  let live =
    List.fold_left
      (fun s p -> List.fold_left (Fun.flip Dset.add) s (manifest_chunks p))
      live keep
  in
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
      Array.iter
        (fun n ->
          let stale_chunk =
            Filename.check_suffix n chunk_suffix
            && not (Dset.mem (Filename.chop_suffix n chunk_suffix) live)
          in
          (* stray .tmp files are torn files from a crash mid-write *)
          if stale_chunk || Filename.check_suffix n ".tmp" then
            try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        names

let write ?(known = nothing_known) dir t =
  let passed = ref false in
  let tear () =
    (not !passed)
    && begin
         passed := true;
         Guard.Fault.crash_fire Guard.Fault.Checkpoint_write
       end
  in
  let named = ref Dset.empty and wrote = ref false in
  let chunk data =
    let hex = Digest.to_hex (Digest.bytes data) in
    if Dset.mem hex known || Dset.mem hex !named then Obs.Metrics.incr m_reused
    else begin
      let tmp, final = stage ~tear dir (chunk_file hex) data in
      Unix.rename tmp final;
      wrote := true;
      Obs.Metrics.incr m_written
    end;
    named := Dset.add hex !named;
    hex
  in
  let doc =
    J.Obj
      [
        ("format", J.Int format_version);
        ("lsn", J.Int t.ck_lsn);
        ( "tables",
          J.List
            (List.map
               (fun tb -> J.Obj (schema_fields tb.ck_table @ payload_fields chunk tb.ck_batch))
               t.ck_tables) );
        ( "summaries",
          J.List
            (List.map
               (fun s ->
                 J.Obj
                   ([
                      ("name", J.Str s.ck_name);
                      ("sql", J.Str s.ck_sql);
                      ("fresh", J.Bool (s.ck_payload = None));
                    ]
                   @ Option.fold ~none:[] ~some:(payload_fields chunk) s.ck_payload))
               t.ck_summaries) );
      ]
  in
  (* every chunk's rename is durable before the manifest's can be *)
  if !wrote then fsync_dir dir;
  let tmp, final =
    stage ~tear dir (name_of_lsn t.ck_lsn) (Bytes.of_string (J.to_string doc ^ "\n"))
  in
  Guard.Fault.crash_hit Guard.Fault.Checkpoint_rename;
  Unix.rename tmp final;
  fsync_dir dir;
  prune dir !named;
  !named

(* ---------------- load ---------------- *)

type loaded = { l_ckpt : t; l_damaged : string list; l_known : known }

let load_file path =
  let dir = Filename.dirname path in
  let verified = ref Dset.empty in
  let read hex =
    let* body = read_file (Filename.concat dir (chunk_file hex)) in
    if Digest.to_hex (Digest.string body) <> hex then
      Error (Printf.sprintf "chunk %s fails its digest" hex)
    else begin
      verified := Dset.add hex !verified;
      Ok body
    end
  in
  (* names first: a damaged summary still needs its column names *)
  let payload j =
    let* names = Result.bind (field "names" j) str_list in
    let names = Array.of_list names in
    let batch =
      let* nrows = Result.bind (field "rows" j) as_int in
      let* kinds = Result.bind (field "kinds" j) str_list in
      let* dicts = Result.bind (field "dicts" j) str_list in
      let* dicts = map_m (fun hex -> Result.bind (read hex) Chunk.decode_dict) dicts in
      let* ranges = Result.bind (field "chunks" j) str_list in
      Chunk.decode ~names ~kinds ~nrows ~dicts ~read ranges
    in
    Ok (names, batch)
  in
  let table_of_json j =
    let* tbl = schema_of_json j in
    let* names, batch = payload j in
    let* batch = Result.map_error (Printf.sprintf "table %s: %s" tbl.Catalog.tbl_name) batch in
    if Array.length names <> List.length tbl.Catalog.tbl_cols then
      Error (Printf.sprintf "table %s: payload arity differs from its schema" tbl.Catalog.tbl_name)
    else Ok { ck_table = tbl; ck_batch = batch }
  in
  let damaged = ref [] in
  let summary_of_json j =
    let* name = Result.bind (field "name" j) as_str in
    let* sql = Result.bind (field "sql" j) as_str in
    let* fresh = Result.bind (field "fresh" j) as_bool in
    (* a fresh summary is re-derived: chunks named for it (older writers
       named some) are neither read nor digested *)
    let* stored =
      if fresh then Ok None
      else
        let* names, batch = payload j in
        match batch with
        | Ok b -> Ok (Some b)
        | Error _ ->
            damaged := name :: !damaged;
            Ok (Some (C.of_relation (Data.Relation.empty (Array.to_list names))))
    in
    Ok { ck_name = name; ck_sql = sql; ck_payload = stored }
  in
  let* body = read_file path in
  let* j = J.of_string body in
  let* fmt = Result.bind (field "format" j) as_int in
  if fmt <> format_version then
    Error (Printf.sprintf "unsupported checkpoint format %d" fmt)
  else
    let* lsn = Result.bind (field "lsn" j) as_int in
    let* tables = Result.bind (Result.bind (field "tables" j) as_list) (map_m table_of_json) in
    let* summaries =
      Result.bind (Result.bind (field "summaries" j) as_list) (map_m summary_of_json)
    in
    Ok
      {
        l_ckpt = { ck_lsn = lsn; ck_tables = tables; ck_summaries = summaries };
        l_damaged = List.rev !damaged;
        l_known = !verified;
      }

let load_latest dir =
  let rec go skipped = function
    | [] -> (None, skipped)
    | path :: rest -> (
        match load_file path with
        | Ok l -> (Some l, skipped)
        | Error _ -> go (skipped + 1) rest)
  in
  go 0 (files dir)
