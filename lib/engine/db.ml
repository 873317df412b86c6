(* One immutable column batch per table. Batches are never arena-backed:
   they come from a decode ([put]), from [Exec.run_batch]'s copy out of the
   scratch arena ([put_batch]), or from an append made outside any
   executor run ([append]). *)

module Smap = Map.Make (String)
module R = Data.Relation
module V = Data.Value
module C = Column
module BA1 = Bigarray.Array1

(* A table that has been appended to keeps spare capacity: its numeric
   columns are prefixes of larger buffers, and the next append writes the
   rows after the prefix in place instead of copying the table. [extent]
   counts the buffer rows written so far. An append claims rows only from
   the current extent on, so no stored batch ever sees one of its rows
   change; an append to any other version sharing the buffers (an older
   snapshot, a rolled-back statement's) copies instead. *)
type spare = { buffers : C.data array; cap : int; extent : int Atomic.t }

(* [scanned] is the row count when the distinct-value statistics were last
   counted. *)
type entry = { batch : C.batch; spare : spare option; scanned : int }
type t = { cat : Catalog.t; tables : entry Smap.t }

let create cat = { cat; tables = Smap.empty }
let catalog db = db.cat
let with_catalog db cat = { db with cat }

let materialized_rows = Obs.Metrics.counter "db.materialized_rows"

(* Install [b] under [name] and refresh its statistics. Distinct-count
   statistics are exact but only recounted when the table changed
   materially since the last count (>5% and >100 rows), so a stream of
   small INSERT/DELETE statements stays linear instead of rescanning the
   whole table each time, while the drift the statements add up to still
   triggers a recount. [ndv i] counts column [i]'s distinct values. *)
let install ?(ndv = fun (b : C.batch) i -> C.ndv b.C.cols.(i)) ?spare db name
    (b : C.batch) =
  let n = b.C.nrows in
  let last_scan =
    match (Smap.find_opt name db.tables, Catalog.row_count db.cat name) with
    | Some e, Some _ -> Some e.scanned
    | _ -> None
  in
  let stale =
    match last_scan with
    | None -> true
    | Some old -> abs (n - old) > Stdlib.max 100 (old / 20)
  in
  let cat = Catalog.set_row_count db.cat name n in
  let cat =
    if not stale then cat
    else
      let cat = ref cat in
      Array.iteri
        (fun i col -> cat := Catalog.set_col_ndv !cat name col (ndv b i))
        b.C.names;
      !cat
  in
  let scanned = match last_scan with Some old when not stale -> old | _ -> n in
  { cat; tables = Smap.add name { batch = b; spare; scanned } db.tables }

let put db name rel =
  (* a column mixing INT and FLOAT values decodes to floats, where Int 3
     and Float 3.0 become one value; its statistic counts the values as
     given *)
  let rows = R.rows_array rel in
  let ndv (b : C.batch) i =
    match b.C.cols.(i).C.data with
    | C.Floats _
      when Array.exists (fun row -> match row.(i) with V.Int _ -> true | _ -> false) rows
      ->
        let seen = Hashtbl.create 64 in
        Array.iter (fun row -> Hashtbl.replace seen row.(i) ()) rows;
        Hashtbl.length seen
    | _ -> C.ndv b.C.cols.(i)
  in
  install ~ndv db name (C.of_relation rel)

let put_batch db name b = install db name b

(* No distinct count: the table's NDVs stay unknown to the cost model. *)
let put_batch_uncounted db name (b : C.batch) =
  {
    cat = Catalog.set_row_count db.cat name b.C.nrows;
    tables = Smap.add name { batch = b; spare = None; scanned = b.C.nrows } db.tables;
  }

(* Appends in place need every column numeric and NULL-free on both
   sides, of one kind per column; anything else concatenates into fresh
   columns. *)
let in_place (cur : C.batch) (d : C.batch) =
  Array.for_all2
    (fun (a : C.t) (b : C.t) ->
      a.C.nulls = None && b.C.nulls = None
      &&
      match (a.C.data, b.C.data) with
      | C.Ints _, C.Ints _ | C.Dates _, C.Dates _ | C.Floats _, C.Floats _ -> true
      | _ -> false)
    cur.C.cols d.C.cols

(* [src]'s rows written into [dst] from row [off] on *)
let blit_at (src : C.data) (dst : C.data) off =
  match (src, dst) with
  | C.Ints a, C.Ints b | C.Dates a, C.Dates b -> BA1.blit a (BA1.sub b off (BA1.dim a))
  | C.Floats a, C.Floats b -> BA1.blit a (BA1.sub b off (BA1.dim a))
  | _ -> invalid_arg "Db.blit_at"

let with_capacity cap (c : C.t) =
  let data =
    match c.C.data with
    | C.Ints _ -> C.Ints (C.icreate cap)
    | C.Dates _ -> C.Dates (C.icreate cap)
    | C.Floats _ -> C.Floats (C.fcreate cap)
    | _ -> invalid_arg "Db.with_capacity"
  in
  blit_at c.C.data data 0;
  data

let prefix n = function
  | C.Ints a -> C.Ints (BA1.sub a 0 n)
  | C.Dates a -> C.Dates (BA1.sub a 0 n)
  | C.Floats a -> C.Floats (BA1.sub a 0 n)
  | _ -> invalid_arg "Db.prefix"

let append db name delta =
  match Smap.find_opt name db.tables with
  | None -> put db name delta
  | Some _ when R.cardinality delta = 0 -> db
  | Some { batch = cur; spare; _ } ->
      let d = C.of_relation delta in
      let n = cur.C.nrows and k = d.C.nrows in
      if not (in_place cur d) then
        install db name
          {
            cur with
            C.cols = Array.map2 (fun a b -> C.concat [ a; b ]) cur.C.cols d.C.cols;
            nrows = n + k;
          }
      else
        let spare =
          match spare with
          | Some s when n + k <= s.cap && Atomic.compare_and_set s.extent n (n + k) -> s
          | _ ->
              let cap = n + k + Stdlib.max k (n / 2) in
              {
                buffers = Array.map (with_capacity cap) cur.C.cols;
                cap;
                extent = Atomic.make (n + k);
              }
        in
        Array.iteri (fun i b -> blit_at d.C.cols.(i).C.data b n) spare.buffers;
        install ~spare db name
          {
            cur with
            C.cols =
              Array.map
                (fun b -> { C.data = prefix (n + k) b; nulls = None })
                spare.buffers;
            nrows = n + k;
          }

let batch db name =
  match Smap.find_opt name db.tables with
  | Some e -> e.batch
  | None -> invalid_arg (Printf.sprintf "Db: no contents for table %s" name)

let cardinality db name = (batch db name).C.nrows

let get db name =
  Option.map
    (fun { batch = b; _ } ->
      Obs.Metrics.add materialized_rows b.C.nrows;
      C.to_relation b)
    (Smap.find_opt name db.tables)

let get_exn db name =
  match get db name with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Db: no contents for table %s" name)

let drop db name = { db with tables = Smap.remove name db.tables }

let of_tables cat tables =
  List.fold_left (fun db (n, r) -> put db n r) (create cat) tables

let of_batches cat batches =
  List.fold_left (fun db (n, b) -> put_batch db n b) (create cat) batches
