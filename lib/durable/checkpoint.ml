(* Atomic JSON checkpoints of {catalog, base tables, summary tables}.

   Validity = the file parses and decodes; a torn temp file never carries
   the real name, and a file corrupted in place fails decode and is skipped
   by [load_latest] in favour of an older one. *)

module J = Obs.Json
module V = Data.Value

type summary = {
  ck_name : string;
  ck_sql : string;
  ck_fresh : bool;
  ck_srows : Data.Relation.row Seq.t;
}

type table = { ck_table : Catalog.table; ck_rows : Data.Relation.row Seq.t }
type t = { ck_lsn : int; ck_tables : table list; ck_summaries : summary list }

let format_version = 1

(* ---------------- encode ---------------- *)

(* The document as a tree whose row lists stay sequences, so [write] can
   render a table one row at a time instead of building every row's JSON
   first. *)
type node =
  | Leaf of J.t
  | Rows of Data.Relation.row Seq.t
  | Obj of (string * node) list
  | List of node list

let strings ss = J.List (List.map (fun s -> J.Str s) ss)

let table_node { ck_table = tbl; ck_rows } =
  Obj
    [
      ("name", Leaf (J.Str tbl.Catalog.tbl_name));
      ( "cols",
        Leaf
          (J.List
             (List.map
                (fun c ->
                  J.Obj
                    [
                      ("name", J.Str c.Catalog.col_name);
                      ("ty", J.Str (V.ty_to_string c.Catalog.col_ty));
                      ("nullable", J.Bool c.Catalog.nullable);
                    ])
                tbl.Catalog.tbl_cols)) );
      ("pk", Leaf (strings tbl.Catalog.primary_key));
      ("unique", Leaf (J.List (List.map strings tbl.Catalog.unique_keys)));
      ( "fks",
        Leaf
          (J.List
             (List.map
                (fun fk ->
                  J.Obj
                    [
                      ("cols", strings fk.Catalog.fk_cols);
                      ("ref_table", J.Str fk.Catalog.fk_ref_table);
                      ("ref_cols", strings fk.Catalog.fk_ref_cols);
                    ])
                tbl.Catalog.foreign_keys)) );
      ("rows", Rows ck_rows);
    ]

let summary_node s =
  Obj
    [
      ("name", Leaf (J.Str s.ck_name));
      ("sql", Leaf (J.Str s.ck_sql));
      ("fresh", Leaf (J.Bool s.ck_fresh));
      ("rows", Rows s.ck_srows);
    ]

let node t =
  Obj
    [
      ("format", Leaf (J.Int format_version));
      ("lsn", Leaf (J.Int t.ck_lsn));
      ("tables", List (List.map table_node t.ck_tables));
      ("summaries", List (List.map summary_node t.ck_summaries));
    ]

let rec json_of = function
  | Leaf j -> j
  | Rows rows -> J.List (List.of_seq (Seq.map Codec.row_to_json rows))
  | Obj kvs -> J.Obj (List.map (fun (k, v) -> (k, json_of v)) kvs)
  | List l -> J.List (List.map json_of l)

let to_json t = json_of (node t)

(* Renders exactly [J.render buf (json_of n)]. *)
let rec render buf n =
  let items f xs =
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string buf ", ";
        f x)
      xs
  in
  match n with
  | Leaf j -> J.render buf j
  | Rows rows ->
      Buffer.add_char buf '[';
      Seq.iteri
        (fun i row ->
          if i > 0 then Buffer.add_string buf ", ";
          J.render buf (Codec.row_to_json row))
        rows;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      items
        (fun (k, v) ->
          J.render buf (J.Str k);
          Buffer.add_string buf ": ";
          render buf v)
        kvs;
      Buffer.add_char buf '}'
  | List l ->
      Buffer.add_char buf '[';
      items (render buf) l;
      Buffer.add_char buf ']'

(* ---------------- decode ---------------- *)

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

let table_of_json j =
  let* name = Result.bind (field "name" j) as_str in
  let* cols = Result.bind (Result.bind (field "cols" j) as_list) (map_m col_of_json) in
  let* pk = Result.bind (field "pk" j) str_list in
  let* unique = Result.bind (Result.bind (field "unique" j) as_list) (map_m str_list) in
  let* fks = Result.bind (Result.bind (field "fks" j) as_list) (map_m fk_of_json) in
  let* rows = Result.bind (field "rows" j) Codec.rows_of_json in
  Ok
    {
      ck_table =
        {
          Catalog.tbl_name = name;
          tbl_cols = cols;
          primary_key = pk;
          unique_keys = unique;
          foreign_keys = fks;
        };
      ck_rows = List.to_seq rows;
    }

let summary_of_json j =
  let* name = Result.bind (field "name" j) as_str in
  let* sql = Result.bind (field "sql" j) as_str in
  let* fresh = Result.bind (field "fresh" j) as_bool in
  let* rows = Result.bind (field "rows" j) Codec.rows_of_json in
  Ok
    {
      ck_name = name;
      ck_sql = sql;
      ck_fresh = fresh;
      ck_srows = List.to_seq rows;
    }

let of_json j =
  let* fmt = Result.bind (field "format" j) as_int in
  if fmt <> format_version then
    Error (Printf.sprintf "unsupported checkpoint format %d" fmt)
  else
    let* lsn = Result.bind (field "lsn" j) as_int in
    let* tables =
      Result.bind (Result.bind (field "tables" j) as_list) (map_m table_of_json)
    in
    let* summaries =
      Result.bind
        (Result.bind (field "summaries" j) as_list)
        (map_m summary_of_json)
    in
    Ok { ck_lsn = lsn; ck_tables = tables; ck_summaries = summaries }

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

let write_fully fd s =
  let b = Bytes.unsafe_of_string s in
  let off = ref 0 and left = ref (String.length s) in
  while !left > 0 do
    let n = Unix.write fd b !off !left in
    off := !off + n;
    left := !left - n
  done

let prune dir =
  (* stray .tmp files are torn checkpoints from a crash mid-write *)
  (match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
      Array.iter
        (fun n ->
          if Filename.check_suffix n ".tmp" then
            try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        names);
  match files dir with
  | _ :: _ :: old -> List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) old
  | _ -> ()

let write dir t =
  let body =
    let buf = Buffer.create 4096 in
    render buf (node t);
    Buffer.add_char buf '\n';
    Buffer.contents buf
  in
  let final = Filename.concat dir (name_of_lsn t.ck_lsn) in
  let tmp = final ^ ".tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      if Guard.Fault.crash_fire Guard.Fault.Checkpoint_write then begin
        (* torn checkpoint: half the bytes land in the temp file, then
           kill -9 — the real name never appears *)
        write_fully fd (String.sub body 0 (String.length body / 2));
        Guard.Fault.crash_now ()
      end;
      write_fully fd body;
      Unix.fsync fd);
  Guard.Fault.crash_hit Guard.Fault.Checkpoint_rename;
  Unix.rename tmp final;
  (match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dfd ->
      Fun.protect
        ~finally:(fun () -> Unix.close dfd)
        (fun () -> try Unix.fsync dfd with Unix.Unix_error _ -> ()));
  prune dir

let load_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error m -> Error m
  | body -> Result.bind (J.of_string body) of_json

let load_latest dir =
  let rec go skipped = function
    | [] -> (None, skipped)
    | path :: rest -> (
        match load_file path with
        | Ok t -> (Some t, skipped)
        | Error _ -> go (skipped + 1) rest)
  in
  go 0 (files dir)
