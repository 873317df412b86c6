type column = { col_name : string; col_ty : Data.Value.ty; nullable : bool }

type foreign_key = {
  fk_cols : string list;
  fk_ref_table : string;
  fk_ref_cols : string list;
}

type table = {
  tbl_name : string;
  tbl_cols : column list;
  primary_key : string list;
  unique_keys : string list list;
  foreign_keys : foreign_key list;
}

module Smap = Map.Make (String)

type t = { tabs : table Smap.t; counts : int Smap.t; ndvs : int Smap.t }

let empty = { tabs = Smap.empty; counts = Smap.empty; ndvs = Smap.empty }
let norm = String.lowercase_ascii

let find_table cat name = Smap.find_opt (norm name) cat.tabs

let table_exn cat name =
  match find_table cat name with
  | Some t -> t
  | None -> invalid_arg (Printf.sprintf "Catalog: unknown table %s" name)

let remove_table cat name =
  let key = norm name in
  Smap.iter
    (fun _ tbl ->
      if norm tbl.tbl_name <> key then
        List.iter
          (fun fk ->
            if norm fk.fk_ref_table = key then
              invalid_arg
                (Printf.sprintf
                   "Catalog: cannot drop %s: table %s references it" name
                   tbl.tbl_name))
          tbl.foreign_keys)
    cat.tabs;
  let ndvs =
    Smap.filter
      (fun k _ -> not (String.length k > String.length key
                       && String.sub k 0 (String.length key + 1) = key ^ "."))
      cat.ndvs
  in
  { tabs = Smap.remove key cat.tabs; counts = Smap.remove key cat.counts; ndvs }

let declared_table cat name =
  match find_table cat name with Some t -> t.tbl_name | None -> name

let tables cat = List.map snd (Smap.bindings cat.tabs)
let mem_table cat name = Smap.mem (norm name) cat.tabs

let find_column tbl name =
  let lname = norm name in
  List.find_opt (fun c -> norm c.col_name = lname) tbl.tbl_cols

let column_names tbl = List.map (fun c -> c.col_name) tbl.tbl_cols

let check_cols_exist tbl what cols =
  List.iter
    (fun c ->
      if find_column tbl c = None then
        invalid_arg
          (Printf.sprintf "Catalog: %s column %s not declared in table %s" what
             c tbl.tbl_name))
    cols

(* A user-typed column list in the table's declared spelling; a column the
   table does not declare stays as typed, for [check_cols_exist] to name. *)
let declared_columns tbl cols =
  List.map
    (fun c -> match find_column tbl c with Some d -> d.col_name | None -> c)
    cols

let keys_of tbl =
  (if tbl.primary_key = [] then [] else [ tbl.primary_key ]) @ tbl.unique_keys

(* Keys are stored in their declared spelling, and so are the names every
   caller passes: the lists compare with [=]. *)
let is_unique_key_tbl tbl cols =
  List.exists (List.for_all (fun k -> List.mem k cols)) (keys_of tbl)

let add_table cat tbl =
  if mem_table cat tbl.tbl_name then
    invalid_arg (Printf.sprintf "Catalog: duplicate table %s" tbl.tbl_name);
  let seen = Hashtbl.create 8 in
  List.iter
    (fun c ->
      let k = norm c.col_name in
      if Hashtbl.mem seen k then
        invalid_arg
          (Printf.sprintf "Catalog: duplicate column %s in table %s" c.col_name
             tbl.tbl_name);
      Hashtbl.add seen k ())
    tbl.tbl_cols;
  check_cols_exist tbl "primary key" tbl.primary_key;
  List.iter (check_cols_exist tbl "unique key") tbl.unique_keys;
  let foreign_keys =
    List.map
      (fun fk ->
        check_cols_exist tbl "foreign key" fk.fk_cols;
        let ref_tbl =
          match find_table cat fk.fk_ref_table with
          | None ->
              invalid_arg
                (Printf.sprintf "Catalog: FK in %s references unknown table %s"
                   tbl.tbl_name fk.fk_ref_table)
          | Some ref_tbl ->
              check_cols_exist ref_tbl "referenced" fk.fk_ref_cols;
              if
                not
                  (is_unique_key_tbl ref_tbl
                     (declared_columns ref_tbl fk.fk_ref_cols))
              then
                invalid_arg
                  (Printf.sprintf
                     "Catalog: FK in %s references non-key columns of %s"
                     tbl.tbl_name fk.fk_ref_table);
              ref_tbl
        in
        if List.length fk.fk_cols <> List.length fk.fk_ref_cols then
          invalid_arg
            (Printf.sprintf "Catalog: FK arity mismatch in table %s" tbl.tbl_name);
        {
          fk_cols = declared_columns tbl fk.fk_cols;
          fk_ref_table = ref_tbl.tbl_name;
          fk_ref_cols = declared_columns ref_tbl fk.fk_ref_cols;
        })
      tbl.foreign_keys
  in
  (* keys and references are stored in their declared spelling, so every
     layer below compares names with [=] *)
  let tbl =
    {
      tbl with
      primary_key = declared_columns tbl tbl.primary_key;
      unique_keys = List.map (declared_columns tbl) tbl.unique_keys;
      foreign_keys;
    }
  in
  { cat with tabs = Smap.add (norm tbl.tbl_name) tbl cat.tabs }

let is_unique_key cat tname cols =
  match find_table cat tname with
  | None -> false
  | Some tbl -> is_unique_key_tbl tbl cols

let ri_holds cat ~from_table ~from_cols ~to_table ~to_cols =
  match find_table cat from_table with
  | None -> false
  | Some tbl ->
      (* the same (column, referenced column) pairs in any order *)
      let wanted c r = List.exists2 (fun f t -> f = c && t = r) from_cols to_cols in
      let pairs fk =
        List.compare_lengths fk.fk_cols from_cols = 0
        && List.for_all2 wanted fk.fk_cols fk.fk_ref_cols
        && List.for_all2
             (fun f t -> List.exists2 (fun c r -> c = f && r = t) fk.fk_cols fk.fk_ref_cols)
             from_cols to_cols
      in
      List.exists
        (fun fk ->
          fk.fk_ref_table = to_table
          && pairs fk
          && List.for_all
               (fun c ->
                 List.exists (fun col -> col.col_name = c && not col.nullable)
                   tbl.tbl_cols)
               fk.fk_cols
          && is_unique_key cat to_table to_cols)
        tbl.foreign_keys

let column_nullable cat tname cname =
  match find_table cat tname with
  | None -> true
  | Some tbl -> (
      match find_column tbl cname with
      | Some c -> c.nullable
      | None -> true)

let set_row_count cat name n = { cat with counts = Smap.add (norm name) n cat.counts }
let row_count cat name = Smap.find_opt (norm name) cat.counts

let ndv_key t c = norm t ^ "." ^ norm c

let set_col_ndv cat t c n = { cat with ndvs = Smap.add (ndv_key t c) n cat.ndvs }
let col_ndv cat t c = Smap.find_opt (ndv_key t c) cat.ndvs

let pp fmt cat =
  Smap.iter
    (fun _ tbl ->
      Format.fprintf fmt "TABLE %s (@[" tbl.tbl_name;
      List.iteri
        (fun i c ->
          if i > 0 then Format.fprintf fmt ",@ ";
          Format.fprintf fmt "%s %s%s" c.col_name
            (Data.Value.ty_to_string c.col_ty)
            (if c.nullable then "" else " NOT NULL"))
        tbl.tbl_cols;
      if tbl.primary_key <> [] then
        Format.fprintf fmt ",@ PRIMARY KEY (%s)"
          (String.concat ", " tbl.primary_key);
      List.iter
        (fun fk ->
          Format.fprintf fmt ",@ FOREIGN KEY (%s) REFERENCES %s (%s)"
            (String.concat ", " fk.fk_cols)
            fk.fk_ref_table
            (String.concat ", " fk.fk_ref_cols))
        tbl.foreign_keys;
      Format.fprintf fmt "@])@\n")
    cat.tabs
