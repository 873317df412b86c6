(* The durability manager: ties the WAL and checkpoints to the shared
   database state.

   Write path (the commit hook, running inside the shared writer lock,
   after the statement body and before the atomic publish):

     1. every [checkpoint_every] commits, first fold the log into a fresh
        checkpoint of the *latest published* snapshot — consistent with
        every WAL record so far, because appends are serialized here;
     2. assign the next LSN and append one record;
     3. apply the fsync policy.

   A failure anywhere aborts the statement (nothing publishes), so no
   acknowledged write exists without its log record. Recovery is the
   mirror image: newest decodable checkpoint, its fresh summaries
   re-derived from its base tables as one set, then the WAL suffix
   replayed through the ordinary statement path. *)

module J = Obs.Json
module R = Data.Relation
module Sh = Mvstore.Shared
module St = Mvstore.Store
module Se = Mvstore.Session


type config = {
  c_dir : string;
  c_fsync : Wal.fsync_policy;
  c_checkpoint_every : int;
}

let default_config dir =
  { c_dir = dir; c_fsync = Wal.Always; c_checkpoint_every = 64 }

type report = {
  r_ckpt_lsn : int option;
  r_ckpt_skipped : int;
  r_wal_records : int;
  r_replayed : int;
  r_replay_errors : int;
  r_torn_bytes : int;
  r_quarantined : string list;
  r_dropped : string list;
}

let describe_report r =
  let buf = Buffer.create 128 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (match r.r_ckpt_lsn with
  | Some lsn -> addf "checkpoint: recovered at lsn %d" lsn
  | None -> addf "checkpoint: none");
  if r.r_ckpt_skipped > 0 then addf " (%d invalid skipped)" r.r_ckpt_skipped;
  addf "; wal: %d record(s), %d replayed" r.r_wal_records r.r_replayed;
  if r.r_replay_errors > 0 then addf ", %d failed" r.r_replay_errors;
  if r.r_torn_bytes > 0 then addf ", torn tail of %d byte(s) truncated"
      r.r_torn_bytes;
  if r.r_quarantined <> [] then
    addf "; quarantined for rebuild: %s" (String.concat ", " r.r_quarantined);
  if r.r_dropped <> [] then
    addf "; dropped: %s" (String.concat ", " r.r_dropped);
  Buffer.contents buf

type t = {
  m_cfg : config;
  m_wal_path : string;
  m_shared : Sh.t;
  mutable m_wal : Wal.writer;
  mutable m_lsn : int;       (* last assigned LSN *)
  mutable m_ckpt_lsn : int;  (* LSN the newest checkpoint covers *)
  mutable m_since : int;     (* commits since that checkpoint *)
  mutable m_known : Checkpoint.known;  (* chunks the newest checkpoint names *)
  mutable m_ckpt_epoch : int;
      (* store epoch of the state the newest checkpoint holds: maintenance
         rebuilds change the state without a WAL record *)
}

let config t = t.m_cfg
let last_lsn t = t.m_lsn
let checkpoint_lsn t = t.m_ckpt_lsn

(* ---------------- metrics ---------------- *)

let m_appends = Obs.Metrics.counter "durable.wal_appends"
let m_checkpoints = Obs.Metrics.counter "durable.checkpoints"
let m_replay_records = Obs.Metrics.counter "durable.replay_records"
let m_replay_errors = Obs.Metrics.counter "durable.replay_errors"
let m_rebuilds = Obs.Metrics.counter "durable.recovery_rebuilds"
let g_lsn = Obs.Metrics.gauge "durable.wal_lsn"
let h_ckpt = Obs.Metrics.histogram "durable.checkpoint_ms"

(* ---------------- WAL records ---------------- *)

let record_to_json lsn (c : Se.commit) =
  match c with
  | Se.Commit_sql sql ->
      J.Obj [ ("lsn", J.Int lsn); ("kind", J.Str "sql"); ("sql", J.Str sql) ]
  | Se.Commit_rows { cr_table; cr_rows } ->
      J.Obj
        [
          ("lsn", J.Int lsn);
          ("kind", J.Str "rows");
          ("table", J.Str cr_table);
          ("rows", Codec.rows_to_json cr_rows);
        ]

type record = Rec_sql of string | Rec_rows of string * R.row list

let record_of_json j =
  match (J.member "lsn" j, J.member "kind" j) with
  | Some (J.Int lsn), Some (J.Str "sql") -> (
      match J.member "sql" j with
      | Some (J.Str sql) -> Ok (lsn, Rec_sql sql)
      | _ -> Error "sql record without a sql field")
  | Some (J.Int lsn), Some (J.Str "rows") -> (
      match (J.member "table" j, J.member "rows" j) with
      | Some (J.Str table), Some rows -> (
          match Codec.rows_of_json rows with
          | Ok rows -> Ok (lsn, Rec_rows (table, rows))
          | Error e -> Error e)
      | _ -> Error "rows record without table/rows fields")
  | _ -> Error "record without lsn/kind fields"

(* ---------------- checkpointing ---------------- *)

let checkpoint_of_snapshot ~lsn (snap : Sh.snapshot) =
  let db = snap.Sh.sn_db in
  let entries = St.entries snap.Sh.sn_store in
  let sum_names = List.map (fun e -> e.St.e_name) entries in
  let batch_of name cols =
    try Engine.Db.batch db name
    with Invalid_argument _ -> Engine.Column.of_relation (R.empty cols)
  in
  {
    Checkpoint.ck_lsn = lsn;
    ck_tables =
      Catalog.tables (Engine.Db.catalog db)
      |> List.filter (fun tb ->
             not (List.mem tb.Catalog.tbl_name sum_names))
      |> List.map (fun tb ->
             {
               Checkpoint.ck_table = tb;
               ck_batch = batch_of tb.Catalog.tbl_name (Catalog.column_names tb);
             });
    ck_summaries =
      List.map
        (fun e ->
          {
            Checkpoint.ck_name = e.St.e_name;
            ck_sql = e.St.e_sql;
            ck_payload =
              (if e.St.e_fresh then None
               else Some (batch_of e.St.e_name (List.map fst e.St.e_cols)));
          })
        entries;
  }

(* Requires exclusivity over writers (called from inside the commit hook,
   or from [checkpoint] below which takes the writer lock itself). Every
   WAL record so far has lsn <= m_lsn, so once the checkpoint lands the
   whole log is covered and reset to empty. *)
let do_checkpoint_locked t snap =
  let ck = checkpoint_of_snapshot ~lsn:t.m_lsn snap in
  t.m_known <-
    Obs.Metrics.time h_ckpt (fun () ->
        Checkpoint.write ~known:t.m_known t.m_cfg.c_dir ck);
  Obs.Metrics.incr m_checkpoints;
  t.m_ckpt_epoch <- St.epoch snap.Sh.sn_store;
  Wal.close t.m_wal;
  Wal.replace t.m_wal_path [];
  t.m_wal <- Wal.open_writer ~policy:t.m_cfg.c_fsync t.m_wal_path;
  t.m_ckpt_lsn <- t.m_lsn;
  t.m_since <- 0

let checkpoint t =
  Sh.with_write t.m_shared (fun snap ->
      do_checkpoint_locked t snap;
      (snap, ()))

let final_checkpoint t =
  Sh.with_write t.m_shared (fun snap ->
      let due =
        t.m_lsn <> t.m_ckpt_lsn || St.epoch snap.Sh.sn_store <> t.m_ckpt_epoch
      in
      if due then do_checkpoint_locked t snap;
      (snap, due))

(* ---------------- the commit hook ---------------- *)

let log t commit =
  (* checkpoint first: the latest *published* snapshot is consistent with
     every record logged so far, not with the one being committed now *)
  if t.m_cfg.c_checkpoint_every > 0 && t.m_since >= t.m_cfg.c_checkpoint_every
  then do_checkpoint_locked t (Sh.snapshot t.m_shared);
  let lsn = t.m_lsn + 1 in
  Wal.append t.m_wal (record_to_json lsn commit);
  t.m_lsn <- lsn;
  t.m_since <- t.m_since + 1;
  Obs.Metrics.incr m_appends;
  Obs.Metrics.set g_lsn (float_of_int lsn)

let bind t sess = Se.set_on_commit sess (Some (log t))

let close t = Wal.close t.m_wal

(* ---------------- recovery ---------------- *)

let rec mkdirs d =
  if d = "/" || d = "." || d = "" || Sys.file_exists d then ()
  else begin
    mkdirs (Filename.dirname d);
    try Unix.mkdir d 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Catalog rebuild honours FK declaration order by fixpoint: keep adding
   tables whose FK targets already exist; anything left over (dangling or
   cyclic references) is retried with its FKs stripped rather than
   dropped — losing an FK declaration only weakens rewrite matching,
   losing a table loses data. *)
let rebuild_catalog tables =
  let cat = ref Catalog.empty in
  let dropped = ref [] in
  let pending = ref tables and progress = ref true in
  while !pending <> [] && !progress do
    progress := false;
    pending :=
      List.filter
        (fun (ct : Checkpoint.table) ->
          match Catalog.add_table !cat ct.Checkpoint.ck_table with
          | cat' ->
              cat := cat';
              progress := true;
              false
          | exception Invalid_argument _ -> true)
        !pending
  done;
  List.iter
    (fun (ct : Checkpoint.table) ->
      let tbl = { ct.Checkpoint.ck_table with Catalog.foreign_keys = [] } in
      match Catalog.add_table !cat tbl with
      | cat' -> cat := cat'
      | exception Invalid_argument _ ->
          dropped := tbl.Catalog.tbl_name :: !dropped)
    !pending;
  (!cat, List.rev !dropped)

let rebuild_db cat tables dropped_tables =
  List.fold_left
    (fun db (ct : Checkpoint.table) ->
      let name = ct.Checkpoint.ck_table.Catalog.tbl_name in
      if List.mem name dropped_tables then db
      else Engine.Db.put_batch db name ct.Checkpoint.ck_batch)
    (Engine.Db.create cat) tables

(* One pass, in manifest order: a summary passes the checks a definition
   does, so none reads another and order does not matter. The fresh
   summaries are re-derived from the restored base tables as one set
   ([St.derive_set]: rollups from the smallest fresh summary that answers
   them; stale payloads are never parents); one whose derivation fails
   comes back empty and stale, as does a [damaged] stale one, and both are
   quarantined for rebuild. Entries that do not elaborate (their
   definition no longer parses, type-checks against the recovered catalog
   or passes validation, or reads a summary) are dropped: summaries are
   derived state. *)
let restore_summaries db ~damaged summaries =
  let derived =
    St.derive_set St.empty db
      (List.filter_map
         (fun { Checkpoint.ck_name; ck_sql; ck_payload } ->
           if ck_payload = None then Some (ck_name, ck_sql) else None)
         summaries)
  in
  let store = ref St.empty and db = ref db in
  let quarantined = ref [] and dropped = ref [] in
  List.iter
    (fun { Checkpoint.ck_name = name; ck_sql = sql; ck_payload = payload } ->
      match St.restore ~derived !store !db ~name ~sql ~payload with
      | store', db' ->
          store := store';
          db := db';
          if List.mem name damaged || (payload = None && List.mem name (St.stale store'))
          then quarantined := name :: !quarantined
      | exception St.Mv_error _ -> dropped := name :: !dropped)
    summaries;
  (!store, !db, List.rev !quarantined, List.rev !dropped)

let recover cfg =
  mkdirs cfg.c_dir;
  let wal_path = Filename.concat cfg.c_dir "wal.log" in
  (* 1. newest checkpoint that loads *)
  let loaded, skipped = Checkpoint.load_latest cfg.c_dir in
  let ckpt = Option.map (fun l -> l.Checkpoint.l_ckpt) loaded in
  let ckpt_lsn = match ckpt with Some c -> c.Checkpoint.ck_lsn | None -> 0 in
  (* 2. base tables as stored; summaries re-derived or, stale, as stored *)
  let store, db, quarantined, dropped =
    match loaded with
    | Some { Checkpoint.l_ckpt = c; l_damaged; _ } ->
        let cat, dropped_tables = rebuild_catalog c.Checkpoint.ck_tables in
        let db = rebuild_db cat c.Checkpoint.ck_tables dropped_tables in
        let store, db, quarantined, dropped_sums =
          restore_summaries db ~damaged:l_damaged c.Checkpoint.ck_summaries
        in
        (store, db, quarantined, dropped_tables @ dropped_sums)
    | None -> (St.empty, Engine.Db.create Catalog.empty, [], [])
  in
  Obs.Metrics.add m_rebuilds (List.length quarantined);
  let shared = Sh.create db store in
  (* 3. WAL: truncate the torn tail, replay the suffix beyond the
     checkpoint through the ordinary statement path *)
  let wal = Wal.read wal_path in
  if wal.Wal.torn_bytes > 0 then
    Wal.truncate wal_path wal.Wal.valid_bytes;
  let sess =
    Se.attach ~config:{ (Se.default_config ()) with rewrite = false } shared
  in
  let last = ref ckpt_lsn in
  let replayed = ref 0 and errors = ref 0 in
  List.iter
    (fun json ->
      match record_of_json json with
      | Error msg ->
          incr errors;
          Obs.Metrics.incr m_replay_errors;
          Printf.eprintf "astql durable: unreadable WAL record (%s)\n%!" msg
      | Ok (lsn, _) when lsn <= ckpt_lsn ->
          (* covered by the checkpoint (crash between checkpoint rename and
             WAL truncation): replay would double-apply, skip *)
          ()
      | Ok (lsn, op) -> (
          last := max !last lsn;
          Obs.Metrics.incr m_replay_records;
          match
            match op with
            | Rec_sql sql -> ignore (Se.exec_sql sess sql)
            | Rec_rows (table, rows) -> Se.replay_rows sess ~table ~rows
          with
          | () -> incr replayed
          | exception e ->
              incr errors;
              Obs.Metrics.incr m_replay_errors;
              Printf.eprintf
                "astql durable: replay of lsn %d failed (%s)\n%!" lsn
                (Printexc.to_string e)))
    wal.Wal.records;
  let t =
    {
      m_cfg = cfg;
      m_wal_path = wal_path;
      m_shared = shared;
      m_wal = Wal.open_writer ~policy:cfg.c_fsync wal_path;
      m_lsn = !last;
      m_ckpt_lsn = ckpt_lsn;
      m_since = !replayed;
      m_known =
        (match loaded with
        | Some l -> l.Checkpoint.l_known
        | None -> Checkpoint.nothing_known);
      m_ckpt_epoch = Sh.epoch shared;
    }
  in
  Obs.Metrics.set g_lsn (float_of_int t.m_lsn);
  (* 4. bootstrap checkpoint: collapse a replayed/damaged log so the next
     boot starts clean *)
  if !replayed > 0 || quarantined <> [] || wal.Wal.torn_bytes > 0 then
    checkpoint t;
  ( t,
    shared,
    {
      r_ckpt_lsn = Option.map (fun c -> c.Checkpoint.ck_lsn) ckpt;
      r_ckpt_skipped = skipped;
      r_wal_records = List.length wal.Wal.records;
      r_replayed = !replayed;
      r_replay_errors = !errors;
      r_torn_bytes = wal.Wal.torn_bytes;
      r_quarantined = quarantined;
      r_dropped = dropped;
    } )

let describe t =
  Printf.sprintf
    "durability:       on (dir=%s, fsync=%s, checkpoint_every=%d)\n\
     wal:              lsn %d, %d commit(s) since checkpoint (covers lsn %d)"
    t.m_cfg.c_dir
    (Wal.fsync_policy_to_string t.m_cfg.c_fsync)
    t.m_cfg.c_checkpoint_every t.m_lsn t.m_since t.m_ckpt_lsn
