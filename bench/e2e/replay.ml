(* The traced half of the benchmark: an in-process replay of a workload's
   request stream that calls each layer's public function in the order a
   server session does (wire decode, parse, QGM build, plan, execute,
   encode; for writes the session's statement path and the WAL), timing
   every call as a span. Probes outside the requests time what the stream
   exercises too rarely to measure (plan misses on a hot stream, refresh,
   checkpoint). *)

module H = Harness
module Se = Mvstore.Session
module Sh = Mvstore.Shared
module St = Mvstore.Store
module Wire = Server.Wire
module J = Obs.Json
module R = Data.Relation
module W = Workload.Star_schema

(* ---------------- the replayed world ---------------- *)

type world = {
  shared : Sh.t;
  reader : Se.t;  (** its planner and plan cache serve the replayed reads *)
  writer : Se.t;
  mgr : Durable.Manager.t option;
}

(* The state astql-server --demo builds, plus the workload's summaries;
   with [durable], a durability manager holding it exactly as the server
   seeds one (fsync always, a checkpoint every 64 commits). *)
let world ?durable (spec : Gen.spec) =
  let seed =
    Se.of_tables (W.catalog ()) (W.generate (W.scaled spec.Gen.scale))
  in
  ignore (Se.exec_sql seed (Gen.summaries_sql spec));
  let shared, mgr =
    match durable with
    | None -> (Se.share seed, None)
    | Some dir ->
        let mgr, shared, _ =
          Durable.Manager.recover
            {
              Durable.Manager.c_dir = dir;
              c_fsync = Durable.Wal.Always;
              c_checkpoint_every = 64;
            }
        in
        Sh.with_write shared (fun _ ->
            ({ Sh.sn_db = Se.db seed; sn_store = Se.store seed }, ()));
        Durable.Manager.checkpoint mgr;
        (shared, Some mgr)
  in
  { shared; reader = Se.attach shared; writer = Se.attach shared; mgr }

(* ---------------- the stream ---------------- *)

type op = Read of string | Write of string

(* The first [n] requests: the reads, and for mixed_ingest one write after
   every [replay_reads_per_write] of them. *)
let stream (spec : Gen.spec) ~seed n =
  List.init n (fun j ->
      match spec.Gen.kind with
      | Gen.Mixed_ingest ->
          let block = spec.Gen.replay_reads_per_write + 1 in
          if j mod block = block - 1 then
            Write (Gen.write ~seed ~scale:spec.Gen.scale (j / block))
          else Read (Gen.read spec ~seed (j - (j / block)))
      | _ -> Read (Gen.read spec ~seed j))

let line_of j sql =
  J.to_string
    (Wire.request_to_json
       { Wire.rq_id = J.Int j; rq_sql = sql; rq_rewrite = None; rq_deadline_ms = None })

let decode line =
  match Wire.request_of_line line with
  | Ok rq -> rq
  | Error e -> failwith (Wire.error_to_string e)

let encode (rq : Wire.request) outcomes =
  J.to_string (Wire.response_ok ~id:rq.Wire.rq_id ~ms:0. outcomes)

(* ---------------- layer by layer ---------------- *)

type tally = {
  mutable result_rows : int;
  mutable planned : int;
  mutable rewritten : int;
  mutable graphs : Qgm.Graph.t list;  (** newest first *)
}

let read_layers tr w tally ~rid line =
  Spans.root tr ~rid (fun parent ->
      let span name f = Spans.child tr ~rid ~parent name f in
      let rq = span "server.decode" (fun () -> decode line) in
      let stmts =
        span "sqlsyn.parse" (fun () -> Sqlsyn.Parser.parse_script rq.Wire.rq_sql)
      in
      let outcomes =
        List.map
          (function
            | Sqlsyn.Ast.Select q ->
                let snap = Sh.snapshot w.shared in
                let db = snap.Sh.sn_db and store = snap.Sh.sn_store in
                let cat = Engine.Db.catalog db in
                let g = span "qgm.build" (fun () -> Qgm.Builder.build cat q) in
                let r =
                  span "plancache.plan" (fun () ->
                      Plancache.Planner.plan (Se.planner w.reader) ~cat
                        ~epoch:(St.epoch store) ~mvs:(St.rewritable store) g)
                in
                let rel =
                  span "engine.exec" (fun () ->
                      Engine.Exec.run db r.Plancache.Planner.pr_graph)
                in
                tally.planned <- tally.planned + 1;
                if r.Plancache.Planner.pr_steps <> [] then
                  tally.rewritten <- tally.rewritten + 1;
                tally.result_rows <- tally.result_rows + R.cardinality rel;
                tally.graphs <- g :: tally.graphs;
                Se.Table rel
            | _ -> failwith "a read request holds a statement that is not a SELECT")
          stmts
      in
      ignore (span "server.encode" (fun () -> encode rq outcomes)))

let commits_of sql =
  List.map
    (fun s -> Se.Commit_sql (Sqlsyn.Pretty.stmt_to_string s))
    (Sqlsyn.Parser.parse_script sql)

(* A write: the session's statement path (maintenance, append, publish),
   then the WAL record the server's commit hook would append. *)
let write_layers tr w ~rid line =
  let commits = commits_of (decode line).Wire.rq_sql in
  Spans.root tr ~rid (fun parent ->
      let span name f = Spans.child tr ~rid ~parent name f in
      let rq = span "server.decode" (fun () -> decode line) in
      let outcomes =
        span "mvstore.write" (fun () -> Se.exec_sql w.writer rq.Wire.rq_sql)
      in
      Option.iter
        (fun mgr ->
          span "durable.wal" (fun () ->
              List.iter (Durable.Manager.log mgr) commits))
        w.mgr;
      ignore (span "server.encode" (fun () -> encode rq outcomes)))

(* ---------------- probes ---------------- *)

let wchar () =
  In_channel.with_open_text "/proc/self/io" In_channel.input_lines
  |> List.find_map (fun l ->
         if String.starts_with ~prefix:"wchar:" l then
           Scanf.sscanf l "wchar: %d" Option.some
         else None)
  |> Option.value ~default:0

let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

let time_ms f =
  let t0 = H.now_ns () in
  ignore (Sys.opaque_identity (f ()));
  H.ms_since t0

let plan_probes tr w graphs =
  let snap = Sh.snapshot w.shared in
  let cat = Engine.Db.catalog snap.Sh.sn_db in
  let epoch = St.epoch snap.Sh.sn_store in
  let mvs = St.rewritable snap.Sh.sn_store in
  (* a one-entry cache misses on every change of fingerprint; the first
     call also builds the candidate index, so it is left out *)
  let cold = Plancache.Planner.create ~capacity:1 () in
  let warm = Plancache.Planner.create () in
  let plan p g = Plancache.Planner.plan p ~cat ~epoch ~mvs g in
  let _, distinct_neighbours =
    List.fold_left
      (fun (prev, acc) g ->
        let fp = Some (Qgm.Fingerprint.of_graph g) in
        if fp = prev then (prev, acc) else (fp, g :: acc))
      (None, []) graphs
  in
  List.iteri
    (fun i g ->
      if i = 0 then ignore (plan cold g)
      else ignore (Spans.probe tr "plancache.plan_miss" (fun () -> plan cold g));
      ignore (plan warm g);
      ignore (Spans.probe tr "plancache.plan_hit" (fun () -> plan warm g)))
    (List.rev distinct_neighbours)

let probe_samples = 60

(* A median needs 20 samples; an insert maintaining 63 summaries takes
   about half a second. *)
let write_samples = 24

(* The counters behind the ratio metrics, summed over the layer calls of
   the stream only. *)
let counted =
  [
    "plan.requests"; "plan.cache_hits"; "plan.cache_misses"; "match.calls";
    "prove.attempts"; "exec.rows"; "exec.col_decode_hits"; "exec.col_decodes";
  ]

let counting acc f =
  let before = List.map counter counted in
  let r = f () in
  List.iter2
    (fun name b ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt acc name) in
      Hashtbl.replace acc name (prev + counter name - b))
    counted before;
  r

(* ---------------- one traced replay ---------------- *)

type result = {
  metrics : (string * H.value) list;
  shares : (string * float) list;
  exec_sql_p50_ms : float;
}

let p50 xs =
  match H.quantile 0.5 xs with
  | Ok q -> { H.v = q.H.q_value; n = q.H.q_n }
  | Error m -> failwith ("replay: " ^ m)

let mean_of xs = { H.v = H.mean xs; n = Array.length xs }
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Phase A: every request layer by layer on [w], and through
   Session.exec_sql on a twin world built the same way. The two alternate
   which goes first, so neither always runs on the warmer caches, and the
   twin's own caches keep its decodes from serving [w]'s. Returns the
   counters of [w]'s layer calls and the microseconds exec_sql took per
   read, by request id. *)
let replay_stream tr w tally (spec : Gen.spec) ops =
  let twin = world spec in
  let acc = Hashtbl.create 8 in
  let exec_sql_us = Hashtbl.create 1024 in
  let through_session s sql =
    let t0 = H.now_ns () in
    ignore (Se.exec_sql s sql);
    H.ms_since t0 *. 1e3
  in
  List.iteri
    (fun rid op ->
      match op with
      | Read sql ->
          let layers () =
            counting acc (fun () -> read_layers tr w tally ~rid (line_of rid sql))
          in
          let session () =
            Hashtbl.replace exec_sql_us rid (through_session twin.reader sql)
          in
          if rid mod 2 = 0 then (layers (); session ())
          else (session (); layers ())
      | Write sql ->
          counting acc (fun () -> write_layers tr w ~rid (line_of rid sql));
          ignore (through_session twin.writer sql))
    ops;
  (acc, exec_sql_us)

(* Phase B: probes on the state the stream left behind. *)
let probes tr w (spec : Gen.spec) ~seed graphs =
  List.iter
    (fun g ->
      ignore
        (Spans.probe tr "qgm.fingerprint" (fun () -> Qgm.Fingerprint.of_graph g)))
    graphs;
  plan_probes tr w (List.filteri (fun i _ -> i <= probe_samples) graphs);
  let snap = Sh.snapshot w.shared in
  let db = snap.Sh.sn_db and store = snap.Sh.sn_store in
  let trans = Engine.Db.get_exn db "Trans" in
  let decode_ms =
    Array.init 5 (fun _ -> time_ms (fun () -> Engine.Column.of_relation trans))
  in
  let first_summary = fst (List.hd spec.Gen.summaries) in
  let refresh_ms =
    Array.init 5 (fun _ ->
        time_ms (fun () -> St.refresh_full store db first_summary))
  in
  let probe_rows k =
    Gen.insert_rows ~seed ~scale:spec.Gen.scale ~tid_base:Gen.probe_tids k
  in
  for k = 0 to write_samples - 1 do
    ignore
      (Spans.probe tr "mvstore.maint" (fun () ->
           St.apply_insert store db ~table:"Trans" ~rows:(probe_rows k)))
  done;
  (* the write path under the server's flush policy (fsync always, a
     checkpoint every 64 commits), starting right after a checkpoint so
     none falls among the timed commits *)
  let mgr = Option.get w.mgr in
  Durable.Manager.checkpoint mgr;
  let c = counter in
  let fsyncs0 = c "durable.wal_fsyncs" and appends0 = c "durable.wal_appends" in
  let wchar0 = wchar () in
  for k = 0 to write_samples - 1 do
    let sql = Gen.insert_sql (probe_rows (write_samples + k)) in
    ignore (Spans.probe tr "mvstore.write" (fun () -> Se.exec_sql w.writer sql));
    Spans.probe tr "durable.wal" (fun () ->
        List.iter (Durable.Manager.log mgr) (commits_of sql))
  done;
  let wal_bytes = wchar () - wchar0 in
  let fsyncs = c "durable.wal_fsyncs" - fsyncs0
  and appends = c "durable.wal_appends" - appends0 in
  let wchar1 = wchar () in
  let checkpoint_ms =
    Array.init 2 (fun _ -> time_ms (fun () -> Durable.Manager.checkpoint mgr))
  in
  let checkpoint_bytes = float_of_int (wchar () - wchar1) /. 2. in
  Durable.Manager.close mgr;
  (* bytes per inserted row once checkpoints are amortized over the 64
     commits each one covers *)
  let bytes_per_row =
    (float_of_int wal_bytes
    +. (checkpoint_bytes *. float_of_int write_samples /. 64.))
    /. float_of_int (write_samples * Gen.rows_per_insert)
  in
  [
    ("engine.decode_ms", mean_of decode_ms);
    ("mvstore.refresh_ms", mean_of refresh_ms);
    ("durable.checkpoint_ms", mean_of checkpoint_ms);
    ("durable.fsyncs_per_write", H.count (ratio fsyncs appends));
    ("durable.write_bytes_per_row", H.count bytes_per_row);
  ]

let run ~dir ~trace_file (spec : Gen.spec) ~seed =
  let ops = stream spec ~seed spec.Gen.trace_requests in
  let tr = Spans.create () in
  let w = world ~durable:(Filename.concat dir "replay-durable") spec in
  let tally = { result_rows = 0; planned = 0; rewritten = 0; graphs = [] } in
  let acc, exec_sql_us = replay_stream tr w tally spec ops in
  let probed = probes tr w spec ~seed (List.rev tally.graphs) in
  Spans.write tr trace_file;
  let spans = Spans.spans tr in
  let c name = Option.value ~default:0 (Hashtbl.find_opt acc name) in
  let misses = c "plan.cache_misses" and decode_hits = c "exec.col_decode_hits" in
  let ratios =
    [
      ("plancache.hit_ratio", ratio (c "plan.cache_hits") (c "plan.requests"));
      ("plancache.rewrite_ratio", ratio tally.rewritten tally.planned);
      ("astmatch.match_calls_per_miss", ratio (c "match.calls") misses);
      ("prove.attempts_per_miss", ratio (c "prove.attempts") misses);
      ("engine.rows_per_result", ratio (c "exec.rows") tally.result_rows);
      ( "engine.decode_hit_ratio",
        ratio decode_hits (decode_hits + c "exec.col_decodes") );
    ]
  in
  (* the session's own overhead: what exec_sql adds to the layers it calls *)
  let layer_us = Hashtbl.create 1024 in
  List.iter
    (fun (s : Spans.span) ->
      if
        List.mem s.Spans.sp_name
          [ "sqlsyn.parse"; "qgm.build"; "plancache.plan"; "engine.exec" ]
      then
        let prev =
          Option.value ~default:0. (Hashtbl.find_opt layer_us s.Spans.sp_rid)
        in
        Hashtbl.replace layer_us s.Spans.sp_rid
          (prev +. (Int64.to_float (Spans.duration_ns s) /. 1e3)))
    spans;
  let session_self =
    Array.of_seq
      (Seq.map
         (fun (rid, us) ->
           us -. Option.value ~default:0. (Hashtbl.find_opt layer_us rid))
         (Hashtbl.to_seq exec_sql_us))
  in
  let req name = p50 (Spans.durations_us ~requests:true spans name) in
  let probe name = p50 (Spans.durations_us ~requests:false spans name) in
  let shares = Spans.layer_shares spans in
  let metrics =
    [
      ("server.decode_us", req "server.decode");
      ("server.encode_us", req "server.encode");
      ("sqlsyn.parse_us", req "sqlsyn.parse");
      ("qgm.build_us", req "qgm.build");
      ("qgm.fingerprint_us", probe "qgm.fingerprint");
      ("plancache.plan_hit_us", probe "plancache.plan_hit");
      ("plancache.plan_miss_us", probe "plancache.plan_miss");
      ("engine.exec_us", req "engine.exec");
      ("mvstore.session_self_us", p50 session_self);
      ("mvstore.maint_us", probe "mvstore.maint");
      ("mvstore.write_us", probe "mvstore.write");
      ("durable.wal_us", probe "durable.wal");
      ( "trace.unattributed_share",
        H.count (Option.value ~default:0. (List.assoc_opt "unattributed" shares)) );
    ]
    @ probed
    @ List.map (fun (k, v) -> (k, H.count v)) ratios
  in
  let exec_sql_p50 = p50 (Array.of_seq (Hashtbl.to_seq_values exec_sql_us)) in
  { metrics; shares; exec_sql_p50_ms = exec_sql_p50.H.v /. 1e3 }
