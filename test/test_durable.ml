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
          ck_rows =
            [
              [| V.Int 1; V.Int 10; V.Str "x" |];
              [| V.Int 2; V.Null; V.Null |];
              [| V.Int 3; V.Int 30; V.Str "é😀" |];
            ];
        };
      ];
    ck_summaries =
      [
        {
          Ck.ck_name = "s1";
          ck_sql = "SELECT a, SUM(b) AS sb FROM t GROUP BY a";
          ck_fresh = true;
          ck_srows = [ [| V.Int 1; V.Int 10 |] ];
        };
      ];
  }

let test_checkpoint_roundtrip () =
  let dir = tmpdir () in
  let t = sample_checkpoint () in
  Ck.write dir t;
  match Ck.load_latest dir with
  | Some t', 0 ->
      Alcotest.(check int) "lsn" t.Ck.ck_lsn t'.Ck.ck_lsn;
      Alcotest.(check string)
        "encode fixpoint"
        (J.to_string (Ck.to_json t))
        (J.to_string (Ck.to_json t'))
  | Some _, n -> Alcotest.failf "unexpected %d skipped" n
  | None, _ -> Alcotest.fail "checkpoint did not load"

let test_checkpoint_skips_invalid () =
  let dir = tmpdir () in
  let t = sample_checkpoint () in
  Ck.write dir t;
  (* a newer checkpoint corrupted in place fails decode and is skipped in
     favour of the older good one *)
  Out_channel.with_open_text (Filename.concat dir "ckpt-99.json") (fun oc ->
      Out_channel.output_string oc "{ not json");
  (match Ck.load_latest dir with
  | Some t', skipped ->
      Alcotest.(check int) "fell back" 7 t'.Ck.ck_lsn;
      Alcotest.(check int) "skipped the bad one" 1 skipped
  | None, _ -> Alcotest.fail "should fall back to the older checkpoint");
  (* a torn temp file never carries the real name, so it is ignored *)
  Out_channel.with_open_text (Filename.concat dir "ckpt-100.json.tmp")
    (fun oc -> Out_channel.output_string oc "{\"half\":");
  match Ck.load_latest dir with
  | Some t', _ -> Alcotest.(check int) "tmp invisible" 7 t'.Ck.ck_lsn
  | None, _ -> Alcotest.fail "tmp file must not shadow the checkpoint"

let test_checkpoint_prune () =
  let dir = tmpdir () in
  List.iter
    (fun lsn -> Ck.write dir { (sample_checkpoint ()) with Ck.ck_lsn = lsn })
    [ 1; 2; 3; 4 ];
  let names = Sys.readdir dir |> Array.to_list |> List.sort compare in
  Alcotest.(check (list string))
    "newest two survive"
    [ "ckpt-3.json"; "ckpt-4.json" ]
    names

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

let test_corrupt_payload_quarantined () =
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
            ck_rows = [ [| V.Int 1; V.Int 10 |]; [| V.Int 2; V.Int 20 |] ];
          };
        ];
      ck_summaries =
        [
          {
            Ck.ck_name = "s";
            ck_sql =
              "SELECT a, SUM(b) AS sb, COUNT(*) AS n FROM t GROUP BY a";
            ck_fresh = true;
            (* bit rot: the stored payload disagrees with re-derivation *)
            ck_srows = [ [| V.Int 1; V.Int 999; V.Int 1 |] ];
          };
        ];
    }
  in
  Ck.write dir ck;
  let _, shared, report = M.recover (cfg_of dir ()) in
  Alcotest.(check (list string))
    "summary quarantined" [ "s" ] report.M.r_quarantined;
  let sess = Sess.attach shared in
  (match Mvstore.Store.find (Sess.store sess) "s" with
  | Some e ->
      Alcotest.(check bool) "stale, not fresh" false e.Mvstore.Store.e_fresh
  | None -> Alcotest.fail "quarantine must keep the definition");
  (* queries stay correct: the quarantined summary is not used for rewrite *)
  Helpers.check_rows "base answers remain right"
    (R.create [ "a"; "sb" ] [ [| V.Int 1; V.Int 10 |]; [| V.Int 2; V.Int 20 |] ])
    (table_of sess "SELECT a, SUM(b) AS sb FROM t GROUP BY a;");
  (* and the ordinary rebuild path restores it *)
  ignore (Sess.exec_sql sess "REFRESH SUMMARY TABLE s;");
  match Mvstore.Store.find (Sess.store sess) "s" with
  | Some e -> Alcotest.(check bool) "fresh again" true e.Mvstore.Store.e_fresh
  | None -> Alcotest.fail "summary lost by refresh"

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
            ck_rows = [ [| V.Int 1 |] ];
          };
        ];
      ck_summaries =
        [
          {
            Ck.ck_name = "ghost";
            ck_sql = "SELECT x FROM vanished GROUP BY x";
            ck_fresh = true;
            ck_srows = [];
          };
        ];
    }
  in
  Ck.write dir ck;
  (* a summary whose definition no longer elaborates is dropped; recovery
     never refuses to boot over derived state *)
  let _, shared, report = M.recover (cfg_of dir ()) in
  Alcotest.(check (list string)) "dropped" [ "ghost" ] report.M.r_dropped;
  let sess = Sess.attach shared in
  Helpers.check_rows "base table intact"
    (R.create [ "a" ] [ [| V.Int 1 |] ])
    (table_of sess "SELECT a FROM t;")

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
    Alcotest.test_case "corrupt summary payload quarantined" `Quick
      test_corrupt_payload_quarantined;
    Alcotest.test_case "undecodable summary dropped" `Quick
      test_undecodable_summary_dropped;
    Alcotest.test_case "torn wal tail recovery" `Quick test_torn_wal_tail_recovery;
  ]
