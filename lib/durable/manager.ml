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
   mirror image: newest decodable checkpoint, then the WAL suffix replayed
   through the ordinary statement path, then the degraded-recovery ladder
   over summary payloads. *)

module J = Obs.Json
module R = Data.Relation
module Sh = Mvstore.Shared
module St = Mvstore.Store
module Se = Mvstore.Session

let norm = String.lowercase_ascii

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
  let sum_names = List.map (fun e -> norm e.St.e_name) entries in
  let rows_of name =
    match Engine.Db.get db name with Some r -> R.rows r | None -> []
  in
  {
    Checkpoint.ck_lsn = lsn;
    ck_tables =
      Catalog.tables (Engine.Db.catalog db)
      |> List.filter (fun tb ->
             not (List.mem (norm tb.Catalog.tbl_name) sum_names))
      |> List.map (fun tb ->
             {
               Checkpoint.ck_table = tb;
               ck_rows = rows_of tb.Catalog.tbl_name;
             });
    ck_summaries =
      List.map
        (fun e ->
          {
            Checkpoint.ck_name = e.St.e_name;
            ck_sql = e.St.e_sql;
            ck_fresh = e.St.e_fresh;
            ck_srows = rows_of e.St.e_name;
          })
        entries;
  }

(* Requires exclusivity over writers (called from inside the commit hook,
   or from [checkpoint] below which takes the writer lock itself). Every
   WAL record so far has lsn <= m_lsn, so once the checkpoint lands the
   whole log is covered and reset to empty. *)
let do_checkpoint_locked t snap =
  let ck = checkpoint_of_snapshot ~lsn:t.m_lsn snap in
  Obs.Metrics.time h_ckpt (fun () -> Checkpoint.write t.m_cfg.c_dir ck);
  Obs.Metrics.incr m_checkpoints;
  Wal.close t.m_wal;
  Wal.replace t.m_wal_path [];
  t.m_wal <- Wal.open_writer ~policy:t.m_cfg.c_fsync t.m_wal_path;
  t.m_ckpt_lsn <- t.m_lsn;
  t.m_since <- 0

let checkpoint t =
  Sh.with_write t.m_shared (fun snap ->
      do_checkpoint_locked t snap;
      (snap, ()))

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
      else
        let cols = Catalog.column_names ct.Checkpoint.ck_table in
        let rel =
          try R.create cols ct.Checkpoint.ck_rows
          with Invalid_argument _ -> R.empty cols
        in
        Engine.Db.put db name rel)
    (Engine.Db.create cat) tables

(* Summary restore by fixpoint too: a summary defined over another summary
   elaborates only once its dependency is registered. Entries that never
   elaborate (their definition no longer parses or type-checks against the
   recovered catalog) are dropped — summaries are derived state. *)
let restore_summaries store db summaries =
  let store = ref store and db = ref db in
  let dropped = ref [] in
  let pending = ref summaries and progress = ref true in
  while !pending <> [] && !progress do
    progress := false;
    pending :=
      List.filter
        (fun (s : Checkpoint.summary) ->
          match
            St.restore !store !db ~name:s.Checkpoint.ck_name
              ~sql:s.Checkpoint.ck_sql ~fresh:s.Checkpoint.ck_fresh
              ~rows:s.Checkpoint.ck_srows
          with
          | store', db' ->
              store := store';
              db := db';
              progress := true;
              false
          | exception St.Mv_error _ -> true)
        !pending
  done;
  List.iter
    (fun (s : Checkpoint.summary) ->
      dropped := s.Checkpoint.ck_name :: !dropped)
    !pending;
  (!store, !db, List.rev !dropped)

(* The degraded-recovery ladder, final rung: every fresh summary payload
   must agree with a re-derivation from the recovered base tables. Small
   payloads are bag-compared exactly; payloads beyond [verify_cap] rows
   degrade to a cardinality check (full comparison would double recovery
   time for the biggest tables — the cheap check still catches truncation
   and wholesale corruption). A mismatch empties and quarantines the
   summary: correctness of future answers over availability of one
   rewrite. *)
let verify_cap = 10_000

let payload_matches stored derived =
  if R.cardinality stored <= verify_cap then
    R.bag_equal_approx stored derived
  else R.cardinality derived = R.cardinality stored

let verify_summaries shared =
  let quarantined = ref [] in
  Sh.with_write shared (fun snap ->
      let db = ref snap.Sh.sn_db and store = ref snap.Sh.sn_store in
      List.iter
        (fun (e : St.entry) ->
          if e.St.e_fresh then
            let name = e.St.e_name in
            match Engine.Exec.run !db e.St.e_graph with
            | exception _ ->
                (* cannot re-derive right now (e.g. resource pressure):
                   keep the payload; runtime verification still guards
                   individual answers *)
                ()
            | derived ->
                let stored =
                  match Engine.Db.get !db name with
                  | Some r -> r
                  | None -> R.empty (List.map fst e.St.e_cols)
                in
                if not (payload_matches stored derived) then begin
                  let store', db' = St.quarantine_payload !store !db name in
                  store := store';
                  db := db';
                  quarantined := name :: !quarantined;
                  Obs.Metrics.incr m_rebuilds
                end)
        (St.entries !store);
      ({ Sh.sn_db = !db; sn_store = !store }, ()));
  List.rev !quarantined

let recover cfg =
  mkdirs cfg.c_dir;
  let wal_path = Filename.concat cfg.c_dir "wal.log" in
  (* 1. newest checkpoint that decodes *)
  let ckpt, skipped = Checkpoint.load_latest cfg.c_dir in
  let ckpt_lsn = match ckpt with Some c -> c.Checkpoint.ck_lsn | None -> 0 in
  let store, db, dropped =
    match ckpt with
    | None -> (St.empty, Engine.Db.create Catalog.empty, [])
    | Some c ->
        let cat, dropped_tables = rebuild_catalog c.Checkpoint.ck_tables in
        let db = rebuild_db cat c.Checkpoint.ck_tables dropped_tables in
        let store, db, dropped_sums =
          restore_summaries St.empty db c.Checkpoint.ck_summaries
        in
        (store, db, dropped_tables @ dropped_sums)
  in
  let shared = Sh.create db store in
  (* 2. WAL: truncate the torn tail, replay the suffix beyond the
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
  (* 3. degraded-recovery ladder over summary payloads *)
  let quarantined = verify_summaries shared in
  let t =
    {
      m_cfg = cfg;
      m_wal_path = wal_path;
      m_shared = shared;
      m_wal = Wal.open_writer ~policy:cfg.c_fsync wal_path;
      m_lsn = !last;
      m_ckpt_lsn = ckpt_lsn;
      m_since = !replayed;
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
