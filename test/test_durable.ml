(* The durability subsystem: CRC vectors, WAL framing and torn-tail
   tolerance, checkpoint atomicity and decode-or-skip, and manager
   recovery end to end — checkpoint + WAL suffix replay, statement
   rollback never resurrected, corrupted summary payloads degraded to
   quarantine instead of refusing to boot. *)

module J = Obs.Json
module R = Data.Relation
module V = Data.Value
module W = Durable.Wal
module Ck = Durable.Checkpoint
module M = Durable.Manager
module Sess = Mvstore.Session

let tmpdir () =
  let d = Filename.temp_file "astql-durable" "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let file_size path = (Unix.stat path).Unix.st_size

let append_raw path s =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
  in
  let b = Bytes.unsafe_of_string s in
  let n = Unix.write fd b 0 (Bytes.length b) in
  assert (n = Bytes.length b);
  Unix.close fd

let table_of sess sql =
  match Sess.exec_sql sess sql with
  | [ Sess.Table rel ] -> rel
  | _ -> Alcotest.failf "expected one table from %s" sql

(* --- CRC-32 ------------------------------------------------------------- *)

let test_crc32 () =
  (* the standard check value for CRC-32/ISO-HDLC *)
  Alcotest.(check int)
    "123456789" 0xCBF43926
    (Durable.Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Durable.Crc32.string "");
  Alcotest.(check int)
    "sub window"
    (Durable.Crc32.string "456")
    (Durable.Crc32.sub "123456789" 3 3);
  (* incremental sanity: different inputs, different sums *)
  Alcotest.(check bool)
    "distinguishes" false
    (Durable.Crc32.string "hello" = Durable.Crc32.string "hellp")

(* --- fsync policy parsing ----------------------------------------------- *)

let test_fsync_policy () =
  let ok s p =
    match W.fsync_policy_of_string s with
    | Ok p' -> Alcotest.(check bool) s true (p = p')
    | Error m -> Alcotest.failf "%s: %s" s m
  in
  ok "always" W.Always;
  ok "off" W.Off;
  ok "none" W.Off;
  ok "interval:4" (W.Interval 4);
  ok "interval=4" (W.Interval 4);
  ok "7" (W.Interval 7);
  List.iter
    (fun s ->
      match W.fsync_policy_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "should not parse: %s" s)
    [ "sometimes"; "interval:0"; "interval:-1"; "0"; "" ]

(* --- WAL ---------------------------------------------------------------- *)

let test_wal_roundtrip () =
  let dir = tmpdir () in
  let path = Filename.concat dir "wal.log" in
  let recs =
    [
      J.Obj [ ("lsn", J.Int 1); ("kind", J.Str "sql") ];
      J.Obj [ ("lsn", J.Int 2); ("sql", J.Str "… utf8 é😀 \" quoted") ];
      J.List [ J.Null; J.Bool true; J.Int (-3) ];
    ]
  in
  let w = W.open_writer ~policy:W.Off path in
  List.iter (W.append w) recs;
  W.close w;
  let r = W.read path in
  Alcotest.(check int) "records" 3 (List.length r.W.records);
  Alcotest.(check int) "torn" 0 r.W.torn_bytes;
  Alcotest.(check int) "valid = size" (file_size path) r.W.valid_bytes;
  List.iter2
    (fun a b ->
      Alcotest.(check string) "payload" (J.to_string a) (J.to_string b))
    recs r.W.records

let test_wal_missing_reads_empty () =
  let dir = tmpdir () in
  let r = W.read (Filename.concat dir "nothing-here.log") in
  Alcotest.(check int) "records" 0 (List.length r.W.records);
  Alcotest.(check int) "valid" 0 r.W.valid_bytes

let test_wal_torn_tail () =
  let dir = tmpdir () in
  let path = Filename.concat dir "wal.log" in
  let w = W.open_writer ~policy:W.Off path in
  W.append w (J.Obj [ ("lsn", J.Int 1) ]);
  W.append w (J.Obj [ ("lsn", J.Int 2) ]);
  W.close w;
  let whole = file_size path in
  (* a process killed mid-append leaves a prefix of a frame *)
  let torn = W.frame (J.Obj [ ("lsn", J.Int 3) ]) in
  append_raw path (String.sub torn 0 (String.length torn - 4));
  let r = W.read path in
  Alcotest.(check int) "records survive" 2 (List.length r.W.records);
  Alcotest.(check int) "valid prefix" whole r.W.valid_bytes;
  Alcotest.(check bool) "torn tail seen" true (r.W.torn_bytes > 0);
  (* recovery truncates the tail; the log reads clean afterwards *)
  W.truncate path r.W.valid_bytes;
  let r2 = W.read path in
  Alcotest.(check int) "clean after truncate" 0 r2.W.torn_bytes;
  Alcotest.(check int) "records kept" 2 (List.length r2.W.records);
  (* appending resumes where the truncate left off *)
  let w2 = W.open_writer ~policy:W.Off path in
  W.append w2 (J.Obj [ ("lsn", J.Int 3) ]);
  W.close w2;
  Alcotest.(check int)
    "resumed" 3
    (List.length (W.read path).W.records)

let test_wal_mid_corruption_ends_log () =
  let dir = tmpdir () in
  let path = Filename.concat dir "wal.log" in
  let w = W.open_writer ~policy:W.Off path in
  W.append w (J.Obj [ ("lsn", J.Int 1) ]);
  let keep = file_size path in
  W.append w (J.Obj [ ("lsn", J.Int 2) ]);
  W.append w (J.Obj [ ("lsn", J.Int 3) ]);
  W.close w;
  (* flip one payload byte inside record 2: its CRC no longer matches, so
     the log ends at record 1 — everything after is unreachable *)
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  ignore (Unix.lseek fd (keep + 20) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "#") 0 1);
  Unix.close fd;
  let r = W.read path in
  Alcotest.(check int) "prefix only" 1 (List.length r.W.records);
  Alcotest.(check int) "valid stops before corruption" keep r.W.valid_bytes;
  Alcotest.(check int)
    "rest is torn"
    (file_size path - keep)
    r.W.torn_bytes

let test_wal_replace () =
  let dir = tmpdir () in
  let path = Filename.concat dir "wal.log" in
  let w = W.open_writer ~policy:W.Off path in
  List.iter (fun n -> W.append w (J.Int n)) [ 1; 2; 3; 4 ];
  W.close w;
  W.replace path [ J.Int 9 ];
  (match (W.read path).W.records with
  | [ J.Int 9 ] -> ()
  | _ -> Alcotest.fail "replace should leave exactly the given records");
  W.replace path [];
  Alcotest.(check int) "emptied" 0 (file_size path)

(* --- checkpoints -------------------------------------------------------- *)

module C = Engine.Column

let batch_of cols rows = C.of_relation (R.create cols rows)

let sample_checkpoint () =
  let col name ty nullable = { Catalog.col_name = name; col_ty = ty; nullable } in
  {
    Ck.ck_lsn = 7;
    ck_tables =
      [
        {
          Ck.ck_table =
            {
              Catalog.tbl_name = "t";
              tbl_cols =
                [ col "a" V.Tint false; col "b" V.Tint true; col "s" V.Tstr true ];
              primary_key = [ "a" ];
              unique_keys = [ [ "s" ] ];
              foreign_keys = [];
            };
          ck_batch =
            batch_of [ "a"; "b"; "s" ]
              [
                [| V.Int 1; V.Int 10; V.Str "x" |];
                [| V.Int 2; V.Null; V.Null |];
                [| V.Int 3; V.Int 30; V.Str "é😀" |];
              ];
        };
      ];
    ck_summaries =
      [
        (* stale: its payload is what its last refresh left *)
        {
          Ck.ck_name = "s1";
          ck_sql = "SELECT a, SUM(b) AS sb FROM t GROUP BY a";
          ck_payload = Some (batch_of [ "a"; "sb" ] [ [| V.Int 1; V.Int 10 |] ]);
        };
        (* fresh: recovery re-derives it *)
        { Ck.ck_name = "s2"; ck_sql = "SELECT a, COUNT(*) AS n FROM t GROUP BY a"; ck_payload = None };
      ];
  }

(* Where two batches first differ, bit for bit: names, row count, each
   column's physical kind, NULL mask, dictionary, and data (floats by
   their bits, padding under NULLs included). *)
let batch_diff (a : C.batch) (b : C.batch) =
  let value_bits = function
    | V.Float x -> `Bits (Int64.bits_of_float x)
    | v -> `V v
  in
  let same_ints x y =
    Bigarray.Array1.dim x = Bigarray.Array1.dim y
    && (let ok = ref true in
        for i = 0 to Bigarray.Array1.dim x - 1 do
          if Bigarray.Array1.get x i <> Bigarray.Array1.get y i then ok := false
        done;
        !ok)
  in
  let same_floats x y =
    Bigarray.Array1.dim x = Bigarray.Array1.dim y
    && (let ok = ref true in
        for i = 0 to Bigarray.Array1.dim x - 1 do
          if
            Int64.bits_of_float (Bigarray.Array1.get x i)
            <> Int64.bits_of_float (Bigarray.Array1.get y i)
          then ok := false
        done;
        !ok)
  in
  let same_col (x : C.t) (y : C.t) =
    Option.equal Bytes.equal x.C.nulls y.C.nulls
    &&
    match (x.C.data, y.C.data) with
    | C.Ints p, C.Ints q | C.Dates p, C.Dates q -> same_ints p q
    | C.Floats p, C.Floats q -> same_floats p q
    | C.Bools p, C.Bools q -> Bytes.equal p q
    | C.Dict (p, d), C.Dict (q, e) -> same_ints p q && d = e
    | C.Boxed p, C.Boxed q ->
        Array.length p = Array.length q
        && Array.for_all2 (fun u v -> value_bits u = value_bits v) p q
    | _ -> false
  in
  if a.C.names <> b.C.names then Some "names"
  else if a.C.nrows <> b.C.nrows then Some "row count"
  else
    let rec col i =
      if i = Array.length a.C.cols then None
      else if same_col a.C.cols.(i) b.C.cols.(i) then col (i + 1)
      else Some ("column " ^ a.C.names.(i))
    in
    col 0

let check_batch msg a b =
  match batch_diff a b with
  | None -> ()
  | Some where -> Alcotest.failf "%s: batches differ in %s" msg where

let load_latest_exn dir =
  match Ck.load_latest dir with
  | Some l, 0 -> l
  | Some _, n -> Alcotest.failf "unexpected %d skipped" n
  | None, _ -> Alcotest.fail "checkpoint did not load"

let test_checkpoint_roundtrip () =
  let dir = tmpdir () in
  let t = sample_checkpoint () in
  ignore (Ck.write dir t);
  let l = load_latest_exn dir in
  let t' = l.Ck.l_ckpt in
  Alcotest.(check int) "lsn" t.Ck.ck_lsn t'.Ck.ck_lsn;
  Alcotest.(check (list string)) "nothing damaged" [] l.Ck.l_damaged;
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "schema" true (a.Ck.ck_table = b.Ck.ck_table);
      check_batch "table" a.Ck.ck_batch b.Ck.ck_batch)
    t.Ck.ck_tables t'.Ck.ck_tables;
  List.iter2
    (fun a b ->
      Alcotest.(check (pair string string))
        "definition" (a.Ck.ck_name, a.Ck.ck_sql) (b.Ck.ck_name, b.Ck.ck_sql);
      match (a.Ck.ck_payload, b.Ck.ck_payload) with
      | Some x, Some y -> check_batch "summary" x y
      | None, None -> ()
      | _ -> Alcotest.failf "%s: freshness differs" a.Ck.ck_name)
    t.Ck.ck_summaries t'.Ck.ck_summaries

(* A stored batch — NaN and -0.0 floats, NULLs, quotes and UTF-8 in a
   dictionary — loads back bit for bit, as do its distinct counts. *)
let test_checkpoint_batch_bit_exact () =
  let dir = tmpdir () in
  let t0 = (sample_checkpoint ()).Ck.ck_tables |> List.hd in
  let rel =
    R.create [ "a"; "b"; "s" ]
      [
        [| V.Int 1; V.Float Float.nan; V.Str "q\"uote\n" |];
        [| V.Int 2; V.Null; V.Null |];
        [| V.Int 3; V.Float (-0.0); V.Str "é" |];
      ]
  in
  let db = Engine.Db.put (Engine.Db.create Catalog.empty) "t" rel in
  let stored = Engine.Db.batch db "t" in
  ignore
    (Ck.write dir
       {
         (sample_checkpoint ()) with
         Ck.ck_tables = [ { t0 with Ck.ck_batch = stored } ];
       });
  let back = (List.hd (load_latest_exn dir).Ck.l_ckpt.Ck.ck_tables).Ck.ck_batch in
  check_batch "stored batch" stored back;
  let cat b =
    Engine.Db.catalog (Engine.Db.put_batch (Engine.Db.create Catalog.empty) "t" b)
  in
  List.iter
    (fun c ->
      Alcotest.(check (option int))
        ("ndv " ^ c)
        (Catalog.col_ndv (cat stored) "t" c)
        (Catalog.col_ndv (cat back) "t" c))
    [ "a"; "b"; "s" ]

(* [s] with every [sub] replaced by [by] *)
let replace_all sub by s =
  let n = String.length sub in
  let buf = Buffer.create (String.length s) in
  let i = ref 0 in
  while !i < String.length s do
    if !i + n <= String.length s && String.sub s !i n = sub then begin
      Buffer.add_string buf by;
      i := !i + n
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let test_checkpoint_skips_invalid () =
  let dir = tmpdir () in
  let t = sample_checkpoint () in
  ignore (Ck.write dir t);
  (* a newer checkpoint corrupted in place fails decode and is skipped in
     favour of the older good one *)
  Out_channel.with_open_text (Filename.concat dir "ckpt-99.json") (fun oc ->
      Out_channel.output_string oc "{ not json");
  (match Ck.load_latest dir with
  | Some l, skipped ->
      Alcotest.(check int) "fell back" 7 l.Ck.l_ckpt.Ck.ck_lsn;
      Alcotest.(check int) "skipped the bad one" 1 skipped
  | None, _ -> Alcotest.fail "should fall back to the older checkpoint");
  (* a format-1 checkpoint (JSON rows) is unsupported and skipped too *)
  let old = Filename.concat dir "ckpt-98.json" in
  Out_channel.with_open_text old (fun oc ->
      Out_channel.output_string oc
        "{\"format\": 1, \"lsn\": 98, \"tables\": [], \"summaries\": []}\n");
  (match Ck.load_file old with
  | Error m ->
      Alcotest.(check bool) "reported unsupported" true
        (Helpers.contains m "unsupported checkpoint format 1")
  | Ok _ -> Alcotest.fail "a format-1 checkpoint must not load");
  (match Ck.load_latest dir with
  | Some l, skipped ->
      Alcotest.(check int) "still the good one" 7 l.Ck.l_ckpt.Ck.ck_lsn;
      Alcotest.(check int) "skipped both" 2 skipped
  | None, _ -> Alcotest.fail "should fall back past the format-1 file");
  (* a manifest whose row count disagrees with its chunks fails to load
     (without allocating for the count it claims) *)
  let good = In_channel.with_open_bin (Filename.concat dir "ckpt-7.json") In_channel.input_all in
  List.iter
    (fun rows ->
      let bad = Filename.concat dir "ckpt-97.json" in
      let body = replace_all "\"rows\": 3," (Printf.sprintf "\"rows\": %s," rows) good in
      Alcotest.(check bool) "edited" true (body <> good);
      Out_channel.with_open_bin bad (fun oc -> Out_channel.output_string oc body);
      (match Ck.load_file bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "rows %s must not load" rows);
      Sys.remove bad)
    [ "-3"; "1000000000000"; "2" ];
  (* a torn temp file never carries the real name, so it is ignored *)
  Out_channel.with_open_text (Filename.concat dir "ckpt-100.json.tmp")
    (fun oc -> Out_channel.output_string oc "{\"half\":");
  match Ck.load_latest dir with
  | Some l, _ -> Alcotest.(check int) "tmp invisible" 7 l.Ck.l_ckpt.Ck.ck_lsn
  | None, _ -> Alcotest.fail "tmp file must not shadow the checkpoint"

(* A manifest's entries, each with the list ("tables" or "summaries") it
   is in, read from its JSON. *)
let manifest_entries path =
  let body = In_channel.with_open_bin path In_channel.input_all in
  let j = match J.of_string body with Ok j -> j | Error m -> Alcotest.fail m in
  List.concat_map
    (fun key ->
      match J.member key j with
      | Some (J.List entries) -> List.map (fun e -> (key, e)) entries
      | _ -> [])
    [ "tables"; "summaries" ]

let str_field name e =
  match J.member name e with
  | Some (J.List l) -> List.filter_map (function J.Str s -> Some s | _ -> None) l
  | _ -> []

(* Every chunk a manifest names. *)
let manifest_chunks path =
  List.concat_map
    (fun (_, e) -> str_field "dicts" e @ str_field "chunks" e)
    (manifest_entries path)

let chunk_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun n -> Filename.check_suffix n ".chunk")
  |> List.map (fun n -> Filename.chop_suffix n ".chunk")
  |> List.sort_uniq compare

let test_checkpoint_prune () =
  let dir = tmpdir () in
  (* each checkpoint's table holds its own lsn, so each has a chunk no
     other one names *)
  let named =
    List.map
      (fun lsn ->
        let t = sample_checkpoint () in
        let tb = List.hd t.Ck.ck_tables in
        let b = batch_of [ "a"; "b"; "s" ] [ [| V.Int lsn; V.Int lsn; V.Str "x" |] ] in
        ignore
          (Ck.write dir
             { t with Ck.ck_lsn = lsn; ck_tables = [ { tb with Ck.ck_batch = b } ] });
        (lsn, manifest_chunks (Filename.concat dir (Printf.sprintf "ckpt-%d.json" lsn))))
      [ 1; 2; 3; 4 ]
  in
  let manifests =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun n -> String.starts_with ~prefix:"ckpt-" n)
    |> List.sort compare
  in
  Alcotest.(check (list string))
    "newest two survive"
    [ "ckpt-3.json"; "ckpt-4.json" ]
    manifests;
  let live = List.sort_uniq compare (List.assoc 3 named @ List.assoc 4 named) in
  Alcotest.(check (list string)) "exactly their chunks stay" live (chunk_files dir);
  let pruned_only =
    List.filter (fun c -> not (List.mem c live)) (List.assoc 1 named @ List.assoc 2 named)
  in
  Alcotest.(check bool) "pruned manifests had chunks of their own" true (pruned_only <> []);
  List.iter
    (fun c ->
      Alcotest.(check bool) ("gone: " ^ c) false
        (Sys.file_exists (Filename.concat dir (c ^ ".chunk"))))
    pruned_only;
  Alcotest.(check bool) "no temp files" false
    (Array.exists (fun n -> Filename.check_suffix n ".tmp") (Sys.readdir dir))

(* --- manager: recovery end to end --------------------------------------- *)

let cfg_of dir ?(every = 2) () =
  { M.c_dir = dir; c_fsync = W.Off; c_checkpoint_every = every }

let seed_sql =
  "CREATE TABLE t (a INT NOT NULL, b INT); \
   INSERT INTO t VALUES (1, 10), (2, 20); \
   CREATE SUMMARY TABLE s AS SELECT a, SUM(b) AS sb, COUNT(*) AS n FROM t \
   GROUP BY a; \
   INSERT INTO t VALUES (3, 30); \
   INSERT INTO t VALUES (4, 40);"

let query = "SELECT a, SUM(b) AS sb FROM t GROUP BY a ORDER BY a;"

let test_recover_checkpoint_plus_suffix () =
  let dir = tmpdir () in
  (* first life: checkpoint_every 2 guarantees a mid-run checkpoint, and
     skipping the final checkpoint leaves a WAL suffix to replay *)
  let mgr, shared, _ = M.recover (cfg_of dir ()) in
  let sess = Sess.attach shared in
  M.bind mgr sess;
  ignore (Sess.exec_sql sess seed_sql);
  let expected = table_of sess query in
  Alcotest.(check bool) "commits logged" true (M.last_lsn mgr >= 5);
  Alcotest.(check bool)
    "auto checkpoint ran"
    true
    (M.checkpoint_lsn mgr > 0 && M.checkpoint_lsn mgr < M.last_lsn mgr);
  M.close mgr;
  (* second life *)
  let mgr2, shared2, report = M.recover (cfg_of dir ()) in
  Alcotest.(check bool) "suffix replayed" true (report.M.r_replayed > 0);
  Alcotest.(check int) "no replay errors" 0 report.M.r_replay_errors;
  Alcotest.(check (list string)) "nothing quarantined" [] report.M.r_quarantined;
  let sess2 = Sess.attach shared2 in
  Helpers.check_rows "data equal after recovery" expected (table_of sess2 query);
  (match Mvstore.Store.find (Sess.store sess2) "s" with
  | Some e -> Alcotest.(check bool) "summary restored fresh" true e.Mvstore.Store.e_fresh
  | None -> Alcotest.fail "summary table lost in recovery");
  (* recovered state keeps accepting and logging writes *)
  let sess2 = Sess.attach shared2 in
  M.bind mgr2 sess2;
  ignore (Sess.exec_sql sess2 "INSERT INTO t VALUES (5, 50);");
  Alcotest.(check bool) "lsn advances" true (M.last_lsn mgr2 > 5);
  M.close mgr2

let test_recover_from_wal_only () =
  let dir = tmpdir () in
  (* checkpoint_every 0: nothing but the WAL survives the first life *)
  let mgr, shared, _ = M.recover (cfg_of dir ~every:0 ()) in
  let sess = Sess.attach shared in
  M.bind mgr sess;
  ignore (Sess.exec_sql sess seed_sql);
  let expected = table_of sess query in
  M.close mgr;
  let _, shared2, report = M.recover (cfg_of dir ~every:0 ()) in
  Alcotest.(check (option int)) "no checkpoint" None report.M.r_ckpt_lsn;
  Alcotest.(check int) "all records replayed" 5 report.M.r_replayed;
  let sess2 = Sess.attach shared2 in
  Helpers.check_rows "replay rebuilt the db" expected (table_of sess2 query)

let test_rolled_back_statement_never_replayed () =
  let dir = tmpdir () in
  let mgr, shared, _ = M.recover (cfg_of dir ~every:0 ()) in
  let sess = Sess.attach shared in
  M.bind mgr sess;
  ignore
    (Sess.exec_sql sess
       "CREATE TABLE t (a INT NOT NULL); INSERT INTO t VALUES (1);");
  let lsn_before = M.last_lsn mgr in
  (* the statement fails its integrity check and rolls back — the hook
     must never have run, so the WAL must not move *)
  (try ignore (Sess.exec_sql sess "INSERT INTO t VALUES (2), (NULL);")
   with Sess.Session_error _ -> ());
  Alcotest.(check int) "no record for rollback" lsn_before (M.last_lsn mgr);
  M.close mgr;
  let _, shared2, report = M.recover (cfg_of dir ~every:0 ()) in
  Alcotest.(check int) "replay clean" 0 report.M.r_replay_errors;
  let sess2 = Sess.attach shared2 in
  Helpers.check_rows "rolled-back row absent"
    (R.create [ "a" ] [ [| V.Int 1 |] ])
    (table_of sess2 "SELECT a FROM t;")

let test_copy_from_replayed_as_rows () =
  let dir = tmpdir () in
  let csv = Filename.temp_file "astql" ".csv" in
  Out_channel.with_open_text csv (fun oc ->
      Out_channel.output_string oc "a,b\n1,10\n2,\n3,30\n");
  let mgr, shared, _ = M.recover (cfg_of dir ~every:0 ()) in
  let sess = Sess.attach shared in
  M.bind mgr sess;
  ignore (Sess.exec_sql sess "CREATE TABLE t (a INT NOT NULL, b INT);");
  ignore
    (Sess.exec_sql sess (Printf.sprintf "COPY t FROM '%s' WITH HEADER;" csv));
  let expected = table_of sess "SELECT a, b FROM t;" in
  M.close mgr;
  (* the CSV file is gone by the time recovery replays the statement — the
     WAL logged the rows themselves, not the filename *)
  Sys.remove csv;
  let _, shared2, report = M.recover (cfg_of dir ~every:0 ()) in
  Alcotest.(check int) "replay clean" 0 report.M.r_replay_errors;
  let sess2 = Sess.attach shared2 in
  Helpers.check_rows "rows survive without the file" expected
    (table_of sess2 "SELECT a, b FROM t;")

let test_delete_replayed () =
  let dir = tmpdir () in
  let mgr, shared, _ = M.recover (cfg_of dir ~every:0 ()) in
  let sess = Sess.attach shared in
  M.bind mgr sess;
  (* NOT NULL b: the summary is delete-safe and absorbs the DELETE *)
  ignore
    (Sess.exec_sql sess
       "CREATE TABLE t (a INT NOT NULL, b INT NOT NULL); \
        INSERT INTO t VALUES (1, 10), (1, 11), (2, 20), (3, 30); \
        CREATE SUMMARY TABLE s AS SELECT a, SUM(b) AS sb, COUNT(*) AS n \
        FROM t GROUP BY a; \
        INSERT INTO t VALUES (2, 21), (4, 40); \
        DELETE FROM t WHERE b > 10 AND a < 3;");
  let fresh sess =
    match Mvstore.Store.find (Sess.store sess) "s" with
    | Some e -> e.Mvstore.Store.e_fresh
    | None -> Alcotest.fail "summary table lost"
  in
  Alcotest.(check bool) "summary absorbed the delete" true (fresh sess);
  let table = "SELECT a, b FROM t;" and summary = "SELECT a, sb, n FROM s;" in
  let expected = table_of sess table and expected_s = table_of sess summary in
  Alcotest.(check int) "five records logged" 5 (M.last_lsn mgr);
  M.close mgr;
  let _, shared2, report = M.recover (cfg_of dir ~every:0 ()) in
  Alcotest.(check int) "all records replayed" 5 report.M.r_replayed;
  Alcotest.(check int) "no replay errors" 0 report.M.r_replay_errors;
  Alcotest.(check (list string)) "nothing quarantined" [] report.M.r_quarantined;
  let sess2 = Sess.attach shared2 in
  Helpers.check_rows "table as in the first life" expected (table_of sess2 table);
  Alcotest.(check bool) "summary fresh" true (fresh sess2);
  Helpers.check_rows "summary as in the first life" expected_s (table_of sess2 summary);
  let e = Option.get (Mvstore.Store.find (Sess.store sess2) "s") in
  Helpers.check_rows "summary equals its re-derivation"
    (Engine.Exec.run (Sess.db sess2) e.Mvstore.Store.e_graph)
    (Engine.Db.get_exn (Sess.db sess2) "s")

let test_undecodable_summary_dropped () =
  let dir = tmpdir () in
  let col name ty nullable = { Catalog.col_name = name; col_ty = ty; nullable } in
  let ck =
    {
      Ck.ck_lsn = 1;
      ck_tables =
        [
          {
            Ck.ck_table =
              {
                Catalog.tbl_name = "t";
                tbl_cols = [ col "a" V.Tint false ];
                primary_key = [];
                unique_keys = [];
                foreign_keys = [];
              };
            ck_batch = batch_of [ "a" ] [ [| V.Int 1 |] ];
          };
        ];
      ck_summaries =
        [
          {
            Ck.ck_name = "ghost";
            ck_sql = "SELECT x FROM vanished GROUP BY x";
            ck_payload = None;
          };
        ];
    }
  in
  ignore (Ck.write dir ck);
  (* a summary whose definition no longer elaborates is dropped; recovery
     never refuses to boot over derived state *)
  let _, shared, report = M.recover (cfg_of dir ()) in
  Alcotest.(check (list string)) "dropped" [ "ghost" ] report.M.r_dropped;
  let sess = Sess.attach shared in
  Helpers.check_rows "base table intact"
    (R.create [ "a" ] [ [| V.Int 1 |] ])
    (table_of sess "SELECT a FROM t;")

(* A fresh summary whose re-derivation raises boots empty and stale,
   quarantined like a damaged chunk; a REFRESH rebuilds it once the base
   data lets it. *)
let test_failed_rederivation_quarantined () =
  let dir = tmpdir () in
  ignore
    (Ck.write dir
       {
         Ck.ck_lsn = 1;
         ck_tables =
           [
             {
               Ck.ck_table =
                 {
                   Catalog.tbl_name = "t";
                   tbl_cols =
                     [
                       { Catalog.col_name = "a"; col_ty = V.Tint; nullable = false };
                       { Catalog.col_name = "b"; col_ty = V.Tint; nullable = false };
                     ];
                   primary_key = [];
                   unique_keys = [];
                   foreign_keys = [];
                 };
               ck_batch = batch_of [ "a"; "b" ] [ [| V.Int 1; V.Int 10 |]; [| V.Int 2; V.Int 20 |] ];
             };
           ];
         ck_summaries =
           [
             (* two rows make the scalar subquery fail *)
             { Ck.ck_name = "q"; ck_sql = "SELECT a, (SELECT b FROM t) AS x FROM t"; ck_payload = None };
           ];
       });
  let rebuilds = Helpers.counter "durable.recovery_rebuilds" in
  let _, shared, report = M.recover (cfg_of dir ~every:0 ()) in
  Alcotest.(check (list string)) "quarantined" [ "q" ] report.M.r_quarantined;
  Alcotest.(check int) "counted" 1 (Helpers.counter "durable.recovery_rebuilds" - rebuilds);
  let sess = Sess.attach shared in
  let fresh () =
    match Mvstore.Store.find (Sess.store sess) "q" with
    | Some e -> e.Mvstore.Store.e_fresh
    | None -> Alcotest.fail "quarantine must keep the definition"
  in
  Alcotest.(check bool) "stale" false (fresh ());
  Alcotest.(check int) "empty" 0 (Engine.Db.cardinality (Sess.db sess) "q");
  ignore (Sess.exec_sql sess "DELETE FROM t WHERE a = 2; REFRESH SUMMARY TABLE q;");
  Alcotest.(check bool) "fresh after REFRESH" true (fresh ());
  Helpers.check_rows "rebuilt"
    (R.create [ "a"; "x" ] [ [| V.Int 1; V.Int 10 |] ])
    (table_of sess "SELECT a, x FROM q;")

let test_torn_wal_tail_recovery () =
  let dir = tmpdir () in
  let mgr, shared, _ = M.recover (cfg_of dir ~every:0 ()) in
  let sess = Sess.attach shared in
  M.bind mgr sess;
  ignore
    (Sess.exec_sql sess
       "CREATE TABLE t (a INT NOT NULL); INSERT INTO t VALUES (1);");
  M.close mgr;
  (* a kill mid-append leaves half a frame; recovery truncates it away and
     keeps every whole record *)
  append_raw (Filename.concat dir "wal.log")
    (String.sub (W.frame (J.Str "torn")) 0 9);
  let _, shared2, report = M.recover (cfg_of dir ~every:0 ()) in
  Alcotest.(check bool) "torn bytes reported" true (report.M.r_torn_bytes > 0);
  Alcotest.(check int) "whole records replayed" 2 report.M.r_replayed;
  let sess2 = Sess.attach shared2 in
  Helpers.check_rows "state correct"
    (R.create [ "a" ] [ [| V.Int 1 |] ])
    (table_of sess2 "SELECT a FROM t;")

(* --- typed checkpoints: exit skip, chunk reuse, codec, corruption -------- *)

let manifests dir = List.length (Ck.files dir)

(* A boot that logs nothing leaves the checkpoint set as it found it; one
   write makes the exit checkpoint due. *)
let test_exit_checkpoint_skipped () =
  let dir = tmpdir () in
  let boot () =
    let mgr, shared, _ = M.recover (cfg_of dir ~every:0 ()) in
    let sess = Sess.attach shared in
    M.bind mgr sess;
    (mgr, sess)
  in
  let stop mgr =
    let taken = M.final_checkpoint mgr in
    M.close mgr;
    taken
  in
  let mgr, _ = boot () in
  Alcotest.(check bool) "idle boot: skipped" false (stop mgr);
  Alcotest.(check int) "idle boot: no manifest" 0 (manifests dir);
  let mgr, sess = boot () in
  ignore (Sess.exec_sql sess "CREATE TABLE t (a INT NOT NULL);");
  Alcotest.(check bool) "one write: taken" true (stop mgr);
  Alcotest.(check int) "one write: one manifest" 1 (manifests dir);
  let before = Ck.files dir in
  let mgr, sess = boot () in
  ignore (table_of sess "SELECT a FROM t;");
  Alcotest.(check bool) "read-only boot: skipped" false (stop mgr);
  Alcotest.(check (list string)) "read-only boot: same manifests" before (Ck.files dir);
  let mgr, sess = boot () in
  ignore (Sess.exec_sql sess "INSERT INTO t VALUES (1);");
  Alcotest.(check bool) "another write: taken" true (stop mgr);
  Alcotest.(check int) "another write: a second manifest" 2 (manifests dir);
  (* a maintenance rebuild publishes a new store without a WAL record *)
  let mgr, shared, _ = M.recover (cfg_of dir ~every:0 ()) in
  Mvstore.Shared.with_write shared (fun snap ->
      ({ snap with Mvstore.Shared.sn_store = Mvstore.Store.touch snap.Mvstore.Shared.sn_store }, ()));
  Alcotest.(check bool) "unlogged store change: taken" true (stop mgr)

(* A table of three chunks takes a 4-row INSERT: the next checkpoint
   writes the table's last chunk, and reuses the table's first two chunks
   and both chunks (dictionary and range) of an untouched table. The
   summary stays fresh, so no checkpoint writes a chunk for it. *)
let test_checkpoint_reuses_chunks () =
  let dir = tmpdir () in
  let rows = (2 * Durable.Chunk.rows) + 100 in
  let csv = Filename.temp_file "astql" ".csv" in
  Out_channel.with_open_text csv (fun oc ->
      for i = 1 to rows do
        Printf.fprintf oc "%d,%d\n" i (i mod 10)
      done);
  let mgr, shared, _ = M.recover (cfg_of dir ~every:0 ()) in
  let sess = Sess.attach shared in
  M.bind mgr sess;
  ignore
    (Sess.exec_sql sess
       (Printf.sprintf
          "CREATE TABLE t (a INT NOT NULL, b INT NOT NULL); COPY t FROM '%s'; \
           CREATE TABLE u (k INT NOT NULL, name VARCHAR NOT NULL); \
           INSERT INTO u VALUES (1, 'one'), (2, 'two'); \
           CREATE SUMMARY TABLE s AS SELECT b, COUNT(*) AS n, SUM(a) AS sa \
           FROM t GROUP BY b;"
          csv));
  Sys.remove csv;
  let deltas f =
    let names = [ "durable.chunks_written"; "durable.chunks_reused"; "durable.checkpoint_bytes" ] in
    let before = List.map Helpers.counter names in
    f ();
    List.map2 (fun n b -> Helpers.counter n - b) names before
  in
  (match deltas (fun () -> M.checkpoint mgr) with
  | [ w; r; _ ] ->
      (* t: 3 ranges; u: a dictionary and a range; s: none, it is fresh *)
      Alcotest.(check (pair int int)) "first checkpoint writes all" (5, 0) (w, r)
  | _ -> assert false);
  let on_disk = chunk_files dir in
  ignore
    (Sess.exec_sql sess
       "INSERT INTO t VALUES (100001, 1), (100002, 2), (100003, 3), (100004, 4);");
  match deltas (fun () -> M.checkpoint mgr) with
  | [ w; r; bytes ] ->
      Alcotest.(check (pair int int)) "written, reused" (1, 4) (w, r);
      let fresh = List.filter (fun c -> not (List.mem c on_disk)) (chunk_files dir) in
      Alcotest.(check int) "one new chunk file" 1 (List.length fresh);
      let manifest = List.hd (Ck.files dir) in
      Alcotest.(check int) "bytes: the new chunks and the manifest"
        (List.fold_left
           (fun acc c -> acc + file_size (Filename.concat dir (c ^ ".chunk")))
           (file_size manifest) fresh)
        bytes;
      M.close mgr;
      (* and the reused chunks still recover the whole state *)
      let _, shared2, report = M.recover (cfg_of dir ~every:0 ()) in
      Alcotest.(check int) "nothing skipped" 0 report.M.r_ckpt_skipped;
      let sess2 = Sess.attach shared2 in
      Helpers.check_rows "t recovered"
        (R.create [ "n"; "sa" ] [ [| V.Int (rows + 4); V.Int ((rows * (rows + 1) / 2) + 400010) |] ])
        (table_of sess2 "SELECT COUNT(*) AS n, SUM(a) AS sa FROM t;")
  | _ -> assert false

(* The generator of [prop_stored_roundtrip], plus a boxed column mixing
   every value kind, and a copy count: with [copies > 1] the rows repeat
   until the batch spans that many chunks. *)
let gen_chunked =
  let open QCheck.Gen in
  let* rel = Test_exec.gen_shaped_relation in
  let* k = nat in
  let* copies = frequency [ (5, return 1); (1, int_range 2 3) ] in
  let mix i (row : V.t array) =
    match (i + k) mod 7 with
    | 0 -> V.Str (string_of_int i)
    | 1 -> row.(0)
    | 2 -> row.(1)
    | 3 -> row.(5)
    | 4 -> row.(4)
    | 5 -> V.Null
    | _ -> row.(3)
  in
  let rows = R.rows rel in
  let rows =
    if copies = 1 || rows = [] then rows
    else
      let need = ((copies - 1) * Durable.Chunk.rows) + 1 + (k mod 50) in
      let a = Array.of_list rows in
      List.init need (fun i -> a.(i mod Array.length a))
  in
  let rows = List.mapi (fun i row -> Array.append row [| mix i row |]) rows in
  return (R.create (Test_exec.shape_cols @ [ "x" ]) rows, k)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let prop_chunk_roundtrip =
  QCheck.Test.make ~name:"typed chunks round-trip stored batches bit for bit"
    ~count:200
    (QCheck.make
       ~print:(fun (rel, k) ->
         Printf.sprintf "split %d of %d rows: %s" k (R.cardinality rel)
           (R.to_string (R.create (Array.to_list (R.columns rel)) (List.filteri (fun i _ -> i < 40) (R.rows rel)))))
       gen_chunked)
    (fun (rel, k) ->
      let cols = Array.to_list (R.columns rel) in
      let rows = R.rows rel in
      let k = if rows = [] then 0 else k mod (List.length rows + 1) in
      let piece rs = C.of_relation (R.create cols rs) in
      let a = piece (List.filteri (fun i _ -> i < k) rows)
      and b = piece (List.filteri (fun i _ -> i >= k) rows) in
      (* one decoded piece, and two concatenated (two-piece dictionaries) *)
      let whole = C.of_relation rel
      and joined =
        {
          a with
          C.cols = Array.map2 (fun x y -> C.concat [ x; y ]) a.C.cols b.C.cols;
          nrows = a.C.nrows + b.C.nrows;
        }
      in
      let table name b =
        {
          Ck.ck_table =
            {
              Catalog.tbl_name = name;
              tbl_cols =
                List.map
                  (fun c -> { Catalog.col_name = c; col_ty = V.Tint; nullable = true })
                  cols;
              primary_key = [];
              unique_keys = [];
              foreign_keys = [];
            };
          ck_batch = b;
        }
      in
      let dir = tmpdir () in
      let back =
        Fun.protect
          ~finally:(fun () -> rm_rf dir)
          (fun () ->
            ignore
              (Ck.write dir
                 {
                   Ck.ck_lsn = 1;
                   ck_tables = [ table "w" whole; table "j" joined ];
                   ck_summaries = [];
                 });
            match Ck.load_latest dir with
            | Some l, 0 -> l.Ck.l_ckpt.Ck.ck_tables
            | _ -> QCheck.Test.fail_report "checkpoint did not load")
      in
      let ndvs b =
        let cat =
          Engine.Db.catalog (Engine.Db.put_batch (Engine.Db.create Catalog.empty) "t" b)
        in
        List.map (Catalog.col_ndv cat "t") cols
      in
      List.iter2
        (fun orig (tb : Ck.table) ->
          (match batch_diff orig tb.Ck.ck_batch with
          | None -> ()
          | Some where -> QCheck.Test.fail_reportf "%s differs in %s" tb.Ck.ck_table.Catalog.tbl_name where);
          if ndvs orig <> ndvs tb.Ck.ck_batch then
            QCheck.Test.fail_reportf "%s: ndvs differ" tb.Ck.ck_table.Catalog.tbl_name)
        [ whole; joined ] back;
      true)

let flip_last_byte path =
  let body = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
  let i = Bytes.length body - 1 in
  Bytes.set body i (Char.chr (Char.code (Bytes.get body i) lxor 1));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc body)

(* The range chunks of entry [name] in list [key]. *)
let entry_chunks path key name =
  match
    List.find_opt
      (fun (k, e) -> k = key && J.member "name" e = Some (J.Str name))
      (manifest_entries path)
  with
  | Some (_, e) -> str_field "chunks" e
  | None -> Alcotest.failf "no %s entry %s" key name

(* A file under a chunk's name that this process neither wrote nor
   verified is rewritten, not trusted: it could be a torn leftover. *)
let test_disk_names_not_trusted () =
  let t = sample_checkpoint () in
  let first = tmpdir () in
  ignore (Ck.write first t);
  let names = manifest_chunks (List.hd (Ck.files first)) in
  let dir = tmpdir () in
  List.iter
    (fun c ->
      Out_channel.with_open_bin (Filename.concat dir (c ^ ".chunk")) (fun oc ->
          Out_channel.output_string oc "torn"))
    names;
  ignore (Ck.write dir t);
  let l = load_latest_exn dir in
  Alcotest.(check (list string)) "nothing damaged" [] l.Ck.l_damaged;
  check_batch "table" (List.hd t.Ck.ck_tables).Ck.ck_batch
    (List.hd l.Ck.l_ckpt.Ck.ck_tables).Ck.ck_batch

(* A flipped byte in a base-table chunk invalidates that checkpoint:
   recovery falls back to the previous one. *)
let test_flipped_base_chunk () =
  let dir = tmpdir () in
  let t = sample_checkpoint () in
  let tb = List.hd t.Ck.ck_tables in
  let known = Ck.write dir t in
  let newer =
    batch_of [ "a"; "b"; "s" ] [ [| V.Int 1; V.Int 10; V.Str "x" |]; [| V.Int 9; V.Int 90; V.Str "y" |] ]
  in
  ignore (Ck.write ~known dir { t with Ck.ck_lsn = 8; ck_tables = [ { tb with Ck.ck_batch = newer } ] });
  let newest = List.hd (Ck.files dir) in
  flip_last_byte (Filename.concat dir (List.hd (entry_chunks newest "tables" "t") ^ ".chunk"));
  let _, shared, report = M.recover (cfg_of dir ~every:0 ()) in
  Alcotest.(check int) "skipped" 1 report.M.r_ckpt_skipped;
  Alcotest.(check (option int)) "older checkpoint" (Some 7) report.M.r_ckpt_lsn;
  Helpers.check_rows "older contents"
    (R.create [ "a" ] [ [| V.Int 1 |]; [| V.Int 2 |]; [| V.Int 3 |] ])
    (table_of (Sess.attach shared) "SELECT a FROM t;")

(* A flipped byte in a stale summary's chunk costs only that summary:
   restored empty, quarantined, rebuilt by REFRESH. The fresh summary
   beside it has no chunk to damage and is re-derived. *)
let test_flipped_summary_chunk () =
  let dir = tmpdir () in
  let t = sample_checkpoint () in
  ignore (Ck.write dir t);
  let newest = List.hd (Ck.files dir) in
  Alcotest.(check (list string)) "no chunk for the fresh summary" []
    (entry_chunks newest "summaries" "s2");
  flip_last_byte (Filename.concat dir (List.hd (entry_chunks newest "summaries" "s1") ^ ".chunk"));
  let _, shared, report = M.recover (cfg_of dir ~every:0 ()) in
  Alcotest.(check int) "not skipped" 0 report.M.r_ckpt_skipped;
  Alcotest.(check (list string)) "quarantined" [ "s1" ] report.M.r_quarantined;
  let sess = Sess.attach shared in
  (match Mvstore.Store.find (Sess.store sess) "s1" with
  | Some e -> Alcotest.(check bool) "stale" false e.Mvstore.Store.e_fresh
  | None -> Alcotest.fail "quarantine must keep the definition");
  Alcotest.(check int) "payload emptied" 0 (Engine.Db.cardinality (Sess.db sess) "s1");
  (match Mvstore.Store.find (Sess.store sess) "s2" with
  | Some e -> Alcotest.(check bool) "fresh summary fresh" true e.Mvstore.Store.e_fresh
  | None -> Alcotest.fail "fresh summary lost");
  Helpers.check_rows "fresh summary re-derived"
    (R.create [ "a"; "n" ] [ [| V.Int 1; V.Int 1 |]; [| V.Int 2; V.Int 1 |]; [| V.Int 3; V.Int 1 |] ])
    (table_of sess "SELECT a, n FROM s2;");
  ignore (Sess.exec_sql sess "REFRESH SUMMARY TABLE s1;");
  Helpers.check_rows "rebuilt"
    (R.create [ "a"; "sb" ] [ [| V.Int 1; V.Int 10 |]; [| V.Int 2; V.Null |]; [| V.Int 3; V.Int 30 |] ])
    (table_of sess "SELECT a, sb FROM s1;")

(* The previous writer named chunks for fresh summaries too. Here a fresh
   summary's payload disagrees with its base table (bit rot, or a bug):
   the loader neither reads nor digests it, and recovery re-derives the
   summary fresh — also once the chunk is gone. *)
let test_fresh_payload_ignored () =
  let dir = tmpdir () in
  let col name ty nullable = { Catalog.col_name = name; col_ty = ty; nullable } in
  let ck =
    {
      Ck.ck_lsn = 3;
      ck_tables =
        [
          {
            Ck.ck_table =
              {
                Catalog.tbl_name = "t";
                tbl_cols = [ col "a" V.Tint false; col "b" V.Tint true ];
                primary_key = [];
                unique_keys = [];
                foreign_keys = [];
              };
            ck_batch = batch_of [ "a"; "b" ] [ [| V.Int 1; V.Int 10 |]; [| V.Int 2; V.Int 20 |] ];
          };
        ];
      ck_summaries =
        [
          {
            Ck.ck_name = "s";
            ck_sql = "SELECT a, SUM(b) AS sb, COUNT(*) AS n FROM t GROUP BY a";
            ck_payload = Some (batch_of [ "a"; "sb"; "n" ] [ [| V.Int 1; V.Int 999; V.Int 1 |] ]);
          };
        ];
    }
  in
  ignore (Ck.write dir ck);
  (* the writer calls a summary with a payload stale; mark it fresh, as
     the previous writer did *)
  let path = List.hd (Ck.files dir) in
  let body = In_channel.with_open_bin path In_channel.input_all in
  let older = replace_all "\"fresh\": false" "\"fresh\": true" body in
  Alcotest.(check bool) "edited" true (older <> body);
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc older);
  let chunks = entry_chunks path "summaries" "s" in
  Alcotest.(check bool) "a chunk named for the fresh summary" true (chunks <> []);
  (match Ck.load_file path with
  | Ok l ->
      Alcotest.(check bool) "loaded as fresh" true
        ((List.hd l.Ck.l_ckpt.Ck.ck_summaries).Ck.ck_payload = None);
      Alcotest.(check (list string)) "nothing damaged" [] l.Ck.l_damaged
  | Error m -> Alcotest.fail m);
  let recover_fresh what =
    let _, shared, report = M.recover (cfg_of dir ()) in
    Alcotest.(check int) (what ^ ": not skipped") 0 report.M.r_ckpt_skipped;
    Alcotest.(check (list string)) (what ^ ": not quarantined") [] report.M.r_quarantined;
    let sess = Sess.attach shared in
    let e =
      match Mvstore.Store.find (Sess.store sess) "s" with
      | Some e -> e
      | None -> Alcotest.failf "%s: summary lost" what
    in
    Alcotest.(check bool) (what ^ ": fresh") true e.Mvstore.Store.e_fresh;
    Helpers.check_rows (what ^ ": equals its re-derivation")
      (Engine.Exec.run (Sess.db sess) e.Mvstore.Store.e_graph)
      (Engine.Db.get_exn (Sess.db sess) "s");
    Helpers.check_rows (what ^ ": contents")
      (R.create [ "a"; "sb"; "n" ]
         [ [| V.Int 1; V.Int 10; V.Int 1 |]; [| V.Int 2; V.Int 20; V.Int 1 |] ])
      (table_of sess "SELECT a, sb, n FROM s;")
  in
  recover_fresh "wrong payload";
  List.iter (fun c -> Sys.remove (Filename.concat dir (c ^ ".chunk"))) chunks;
  recover_fresh "payload gone"

(* A checkpoint holding a summary over a summary (the previous writer
   restored one) has it dropped: restore refuses what define refuses. The
   query then answers from the base data, with or without rewriting. *)
let test_summary_over_summary_dropped () =
  let dir = tmpdir () in
  ignore
    (Ck.write dir
       {
         Ck.ck_lsn = 2;
         ck_tables =
           [
             {
               Ck.ck_table =
                 {
                   Catalog.tbl_name = "t";
                   tbl_cols =
                     [
                       { Catalog.col_name = "g"; col_ty = V.Tint; nullable = false };
                       { Catalog.col_name = "v"; col_ty = V.Tint; nullable = false };
                     ];
                   primary_key = [];
                   unique_keys = [];
                   foreign_keys = [];
                 };
               ck_batch = batch_of [ "g"; "v" ] [ [| V.Int 1; V.Int 10 |]; [| V.Int 2; V.Int 20 |] ];
             };
           ];
         ck_summaries =
           [
             {
               Ck.ck_name = "m";
               ck_sql = "SELECT g, COUNT(*) AS c, SUM(v) AS s FROM t GROUP BY g";
               ck_payload = None;
             };
             {
               Ck.ck_name = "m2";
               ck_sql = "SELECT COUNT(*) AS n, SUM(s) AS total FROM m";
               ck_payload = None;
             };
           ];
       });
  let mgr, shared, report = M.recover (cfg_of dir ~every:0 ()) in
  Alcotest.(check (list string)) "dropped" [ "m2" ] report.M.r_dropped;
  let sess = Sess.attach shared in
  M.bind mgr sess;
  ignore (Sess.exec_sql sess "INSERT INTO t VALUES (3, 30);");
  Alcotest.(check bool) "m2 gone" true (Mvstore.Store.find (Sess.store sess) "m2" = None);
  let q = "SELECT COUNT(*) AS n, SUM(s) AS total FROM m;" in
  let expected = R.create [ "n"; "total" ] [ [| V.Int 3; V.Int 60 |] ] in
  Helpers.check_rows "rewriting on" expected (table_of sess q);
  Sess.set_config sess (Helpers.base_only sess);
  Helpers.check_rows "rewriting off" expected (table_of sess q);
  M.close mgr

(* A checkpoint at LSN 1 of one table t (a, b, c, v: NOT NULL integers)
   holding [rows], and fresh summaries [(name, sql)]. *)
let write_rollup_checkpoint dir rows summaries =
  let col name = { Catalog.col_name = name; col_ty = V.Tint; nullable = false } in
  ignore
    (Ck.write dir
       {
         Ck.ck_lsn = 1;
         ck_tables =
           [
             {
               Ck.ck_table =
                 {
                   Catalog.tbl_name = "t";
                   tbl_cols = List.map col [ "a"; "b"; "c"; "v" ];
                   primary_key = [];
                   unique_keys = [];
                   foreign_keys = [];
                 };
               ck_batch = batch_of [ "a"; "b"; "c"; "v" ] rows;
             };
           ];
         ck_summaries =
           List.map
             (fun (name, sql) -> { Ck.ck_name = name; ck_sql = sql; ck_payload = None })
             summaries;
       })

(* Recover [dir]: the shared state, and how many summaries were rolled up
   from another and how many pre-derived results were discarded. *)
let recover_counting dir =
  let from0 = Helpers.counter "store.derived_from_summary"
  and discarded0 = Helpers.counter "store.derived_discarded" in
  let _, shared, report = M.recover (cfg_of dir ~every:0 ()) in
  Alcotest.(check (list string)) "nothing quarantined" [] report.M.r_quarantined;
  ( shared,
    Helpers.counter "store.derived_from_summary" - from0,
    Helpers.counter "store.derived_discarded" - discarded0 )

(* every summary of [shared] is fresh and equals its base derivation, row
   by row *)
let check_fresh_base_derivations shared =
  let sess = Sess.attach shared in
  let store = Sess.store sess and db = Sess.db sess in
  List.iter
    (fun (e : Mvstore.Store.entry) ->
      Alcotest.(check bool) (e.Mvstore.Store.e_name ^ " fresh") true e.Mvstore.Store.e_fresh;
      Helpers.check_batch_values
        (e.Mvstore.Store.e_name ^ " equals its base derivation")
        (Engine.Exec.run_batch db e.Mvstore.Store.e_graph)
        (Engine.Db.batch db e.Mvstore.Store.e_name))
    (Mvstore.Store.entries store);
  List.length (Mvstore.Store.entries store)

(* Recovery re-derives the fresh summaries as one set, through the same
   derivation as a run of CREATE statements: seven rollups of t, listed
   coarse-first, come back with six of them rolled up from another, each
   equal to its base derivation row by row. *)
let test_recovery_rolls_up () =
  let dir = tmpdir () in
  let rows =
    List.init 400 (fun k ->
        [| V.Int (k mod 4); V.Int (k * 7 mod 5); V.Int (k * 13 mod 3); V.Int k |])
  in
  let keys = [ [ "a" ]; [ "b" ]; [ "c" ]; [ "a"; "b" ]; [ "a"; "c" ]; [ "b"; "c" ]; [ "a"; "b"; "c" ] ] in
  let summary ks =
    let cols = String.concat ", " ks in
    ( "r_" ^ String.concat "" ks,
      Printf.sprintf "SELECT %s, COUNT(*) AS n, SUM(v) AS sv, MIN(v) AS lo FROM t GROUP BY %s"
        cols cols )
  in
  write_rollup_checkpoint dir rows (List.map summary keys);
  let shared, from, discarded = recover_counting dir in
  Alcotest.(check int) "six rolled up from a summary" 6 from;
  Alcotest.(check int) "none discarded" 0 discarded;
  Alcotest.(check int) "all seven restored" 7 (check_fresh_base_derivations shared)

(* A total is re-derived from the base tables, never rolled up: over no
   rows its COUNT reads 0, where a SUM of a summary's counts reads NULL. *)
let test_recovery_total_over_no_rows () =
  let dir = tmpdir () in
  write_rollup_checkpoint dir
    (List.init 400 (fun k -> [| V.Int (k mod 4); V.Int 0; V.Int 0; V.Int (k mod 50) |]))
    [
      ("r_all", "SELECT COUNT(*) AS n, COUNT(v) AS nv, SUM(v) AS sv FROM t WHERE v > 1000");
      ("r_v", "SELECT v, COUNT(*) AS n FROM t GROUP BY v");
    ];
  let shared, from, _ = recover_counting dir in
  Alcotest.(check int) "nothing rolled up" 0 from;
  Alcotest.(check int) "both restored" 2 (check_fresh_base_derivations shared);
  Helpers.check_rows "the total counts no rows"
    (R.create [ "n"; "nv"; "sv" ] [ [| V.Int 0; V.Int 0; V.Null |] ])
    (Engine.Db.get_exn (Sess.db (Sess.attach shared)) "r_all")

(* --- recovery property ------------------------------------------------- *)

type op = Ins of (int * int * int) list | Del of int * int | Refresh

let op_sql = function
  | Ins rows ->
      Printf.sprintf "INSERT INTO t VALUES %s;"
        (String.concat ", "
           (List.map
              (fun (g, v, w) -> Printf.sprintf "(%d, %d, %.1f)" g v (float_of_int w /. 10.))
              rows))
  | Del (g, v) -> Printf.sprintf "DELETE FROM t WHERE g = %d AND v < %d;" g v
  | Refresh -> "REFRESH SUMMARY TABLE sx;"

(* [sc] (COUNT/SUM, NOT NULL arguments) absorbs every write and stays
   fresh; [sx] has a MAX, so a DELETE makes it stale until a REFRESH. A
   checkpoint at a random step, a WAL suffix after it, a crash: recovery
   gives back the same freshness, every fresh summary equal to its
   re-derivation (float sums within rounding) and every stale one with
   its pre-crash payload. *)
let prop_recovery_state =
  let open QCheck in
  let row = Gen.(triple (int_range 0 3) (int_range 0 20) (int_range 0 99)) in
  let op =
    Gen.(
      frequency
        [
          (4, map (fun rows -> Ins rows) (list_size (int_range 1 4) row));
          (2, map2 (fun g v -> Del (g, v)) (int_range 0 3) (int_range 0 21));
          (1, return Refresh);
        ])
  in
  Test.make ~name:"recovery keeps freshness, re-derives fresh, keeps stale payloads"
    ~count:60
    (make
       ~print:(fun (ops, k) ->
         Printf.sprintf "checkpoint at step %d of:\n%s" (k mod (List.length ops + 1))
           (String.concat "\n" (List.map op_sql ops)))
       Gen.(pair (list_size (int_range 1 10) op) nat))
    (fun (ops, k) ->
      let k = k mod (List.length ops + 1) in
      let dir = tmpdir () in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      let mgr, shared, _ = M.recover (cfg_of dir ~every:0 ()) in
      let sess = Sess.attach shared in
      M.bind mgr sess;
      ignore
        (Sess.exec_sql sess
           "CREATE TABLE t (g INT NOT NULL, v INT NOT NULL, w FLOAT NOT NULL); \
            INSERT INTO t VALUES (0, 5, 0.1), (1, 7, 0.2), (1, 9, 0.3); \
            CREATE SUMMARY TABLE sc AS SELECT g, COUNT(*) AS n, SUM(v) AS sv, \
            SUM(w) AS sw FROM t GROUP BY g; \
            CREATE SUMMARY TABLE sx AS SELECT g, MAX(v) AS mv, COUNT(*) AS n \
            FROM t GROUP BY g;");
      List.iteri
        (fun i op ->
          if i = k then M.checkpoint mgr;
          ignore (Sess.exec_sql sess (op_sql op)))
        ops;
      if k = List.length ops then M.checkpoint mgr;
      let state sess =
        List.map
          (fun name ->
            match Mvstore.Store.find (Sess.store sess) name with
            | Some e -> (e, Engine.Db.get_exn (Sess.db sess) name)
            | None -> Test.fail_reportf "%s lost" name)
          [ "sc"; "sx" ]
      in
      let before = state sess and base = Engine.Db.get_exn (Sess.db sess) "t" in
      M.close mgr;
      let mgr2, shared2, report = M.recover (cfg_of dir ~every:0 ()) in
      M.close mgr2;
      let sess2 = Sess.attach shared2 in
      if report.M.r_replay_errors <> 0 || report.M.r_quarantined <> [] then
        Test.fail_report "replay errors or quarantine";
      if not (R.bag_equal base (Engine.Db.get_exn (Sess.db sess2) "t")) then
        Test.fail_report "base table differs";
      List.iter2
        (fun (e, payload) (e', payload') ->
          let name = e.Mvstore.Store.e_name in
          if e.Mvstore.Store.e_fresh <> e'.Mvstore.Store.e_fresh then
            Test.fail_reportf "%s: freshness differs" name;
          if e'.Mvstore.Store.e_fresh then begin
            let derived = Engine.Exec.run (Sess.db sess2) e'.Mvstore.Store.e_graph in
            if not (R.bag_equal_approx derived payload') then
              Test.fail_reportf "%s: not its re-derivation" name;
            if not (R.bag_equal_approx payload payload') then
              Test.fail_reportf "%s: differs from before the crash" name
          end
          else if not (R.bag_equal payload payload') then
            Test.fail_reportf "%s: stale payload differs" name)
        before (state sess2);
      true)

let suite =
  [
    Alcotest.test_case "crc32 vectors" `Quick test_crc32;
    Alcotest.test_case "fsync policy parsing" `Quick test_fsync_policy;
    Alcotest.test_case "wal roundtrip" `Quick test_wal_roundtrip;
    Alcotest.test_case "wal missing file reads empty" `Quick
      test_wal_missing_reads_empty;
    Alcotest.test_case "wal torn tail" `Quick test_wal_torn_tail;
    Alcotest.test_case "wal mid-file corruption ends log" `Quick
      test_wal_mid_corruption_ends_log;
    Alcotest.test_case "wal replace" `Quick test_wal_replace;
    Alcotest.test_case "checkpoint roundtrip" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint batches bit-exact" `Quick
      test_checkpoint_batch_bit_exact;
    Alcotest.test_case "checkpoint skips invalid" `Quick
      test_checkpoint_skips_invalid;
    Alcotest.test_case "checkpoint prune" `Quick test_checkpoint_prune;
    Alcotest.test_case "recover checkpoint + wal suffix" `Quick
      test_recover_checkpoint_plus_suffix;
    Alcotest.test_case "recover from wal only" `Quick test_recover_from_wal_only;
    Alcotest.test_case "rolled-back statement never replayed" `Quick
      test_rolled_back_statement_never_replayed;
    Alcotest.test_case "copy-from replayed as rows" `Quick
      test_copy_from_replayed_as_rows;
    Alcotest.test_case "delete replayed from the wal" `Quick test_delete_replayed;
    Alcotest.test_case "corrupt fresh payload ignored" `Quick
      test_fresh_payload_ignored;
    Alcotest.test_case "undecodable summary dropped" `Quick
      test_undecodable_summary_dropped;
    Alcotest.test_case "failed re-derivation quarantined" `Quick
      test_failed_rederivation_quarantined;
    Alcotest.test_case "torn wal tail recovery" `Quick test_torn_wal_tail_recovery;
    Alcotest.test_case "exit checkpoint skip" `Quick test_exit_checkpoint_skipped;
    Alcotest.test_case "checkpoint reuses chunks" `Quick test_checkpoint_reuses_chunks;
    QCheck_alcotest.to_alcotest prop_chunk_roundtrip;
    Alcotest.test_case "disk names not trusted" `Quick test_disk_names_not_trusted;
    Alcotest.test_case "flipped base chunk" `Quick test_flipped_base_chunk;
    Alcotest.test_case "flipped summary chunk" `Quick test_flipped_summary_chunk;
    Alcotest.test_case "recovery rolls fresh summaries up" `Quick test_recovery_rolls_up;
    Alcotest.test_case "recovery derives a total over no rows from the base" `Quick
      test_recovery_total_over_no_rows;
    Alcotest.test_case "summary over summary dropped" `Quick
      test_summary_over_summary_dropped;
    QCheck_alcotest.to_alcotest prop_recovery_state;
  ]
