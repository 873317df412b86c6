(* astql-server — multi-core query serving over the line-JSON protocol.

   One process owns the database; clients connect over a Unix or TCP
   socket and speak one JSON request per line (see Server.Wire). Each
   connection gets its own session bound to the shared snapshot state, a
   bounded pool of OCaml 5 domains serves connections in parallel, and
   overload is shed with a typed error instead of an unbounded queue.

   The database starts empty unless preloaded: positional FILE arguments
   are SQL scripts executed before serving begins; --demo loads the
   paper's star schema. There is no persistence — this is a serving
   harness for the rewriter, not a storage engine. *)

let preload session file =
  let text = In_channel.with_open_text file In_channel.input_all in
  match Mvstore.Session.exec_sql session text with
  | _ -> ()
  | exception Mvstore.Session.Session_error m ->
      Printf.eprintf "%s: %s\n" file m;
      Stdlib.exit 1

let seed_session ~rewrite ~budget ~auto_maint ~demo ~scale files =
  let session =
    if demo then begin
      let params = Workload.Star_schema.scaled scale in
      let tables = Workload.Star_schema.generate params in
      let session =
        Mvstore.Session.of_tables ~rewrite ~budget ~auto_maint
          (Workload.Star_schema.catalog ()) tables
      in
      Printf.eprintf "loaded star schema (%d transactions)\n%!"
        (Data.Relation.cardinality (List.assoc "Trans" tables));
      session
    end
    else Mvstore.Session.create ~rewrite ~budget ~auto_maint ()
  in
  List.iter (preload session) files;
  session

(* With durability on, the recovered shared state is canonical. Seed data
   (demo/FILEs) only applies to a database recovered empty — the WAL and
   checkpoints already hold everything else — and is folded into a
   checkpoint immediately so it survives a crash before the first commit. *)
let state_empty shared =
  let snap = Mvstore.Shared.snapshot shared in
  Catalog.tables (Engine.Db.catalog snap.Mvstore.Shared.sn_db) = []

let m_ckpt_skipped = Obs.Metrics.counter "durable.checkpoint_skipped"

let serve addr domains queue_depth backlog no_rewrite auto_maint deadline_ms
    match_budget request_deadline_ms idle_timeout_ms io_timeout_ms
    degrade_watermark retry_after_ms fault crash metrics_out demo scale
    durability fsync checkpoint_every drain_ms files =
  Cli.arm_faults fault;
  Cli.arm_crashes crash;
  (* chaos-harness knob: how long an armed wire_stall_read fault stalls *)
  (match Sys.getenv_opt "ASTQL_WIRE_STALL_MS" with
  | Some s -> (
      match float_of_string_opt s with
      | Some ms when ms >= 0. -> Guard.Fault.set_wire_stall_ms ms
      | _ -> ())
  | None -> ());
  let rewrite = not no_rewrite in
  let budget = Cli.limits_of ~deadline_ms ~match_budget in
  let cf_addr =
    match Server.Listener.parse_addr addr with
    | Ok a -> a
    | Error m ->
        Printf.eprintf "bad --addr %S: %s\n" addr m;
        Stdlib.exit 2
  in
  let durable =
    match durability with
    | None -> None
    | Some dir ->
        let cfg =
          {
            Durable.Manager.c_dir = dir;
            c_fsync = fsync;
            c_checkpoint_every = checkpoint_every;
          }
        in
        let mgr, shared, report = Durable.Manager.recover cfg in
        Printf.eprintf "astql-server: durability on — %s\n%!"
          (Durable.Manager.describe_report report);
        Some (mgr, shared, report)
  in
  let shared =
    match durable with
    | None ->
        Mvstore.Session.share
          (seed_session ~rewrite ~budget ~auto_maint ~demo ~scale files)
    | Some (mgr, shared, _) ->
        if demo || files <> [] then
          if state_empty shared then begin
            let seed =
              seed_session ~rewrite ~budget ~auto_maint ~demo ~scale files
            in
            Mvstore.Shared.with_write shared (fun _ ->
                ( {
                    Mvstore.Shared.sn_db = Mvstore.Session.db seed;
                    sn_store = Mvstore.Session.store seed;
                  },
                  () ));
            Durable.Manager.checkpoint mgr
          end
          else
            Printf.eprintf
              "astql-server: recovered state is non-empty; ignoring seed \
               data (--demo/FILE)\n\
               %!";
        shared
  in
  let quarantined =
    match durable with Some (_, _, r) -> r.Durable.Manager.r_quarantined | None -> []
  in
  let mk_session () =
    let s = Mvstore.Session.attach ~rewrite ~budget ~auto_maint shared in
    (match durable with
    | Some (mgr, _, _) -> Durable.Manager.bind mgr s
    | None -> ());
    (* summaries the recovery ladder emptied: enqueue for self-healing
       rebuild (idempotent — the first session to refresh wins, the rest
       observe freshness and drop the task) *)
    List.iter (Mvstore.Maint.enqueue (Mvstore.Session.maint s)) quarantined;
    s
  in
  (* the first overload rung defaults to half the queue: plenty of slack
     absorbed at full quality, degraded-but-correct service beyond *)
  let degrade_watermark =
    match degrade_watermark with
    | Some w -> w
    | None -> max 1 (queue_depth / 2)
  in
  let srv =
    match
      Server.Listener.start
        (Server.Listener.config ~addr:cf_addr ~domains
           ~queue_depth ~backlog ~degrade_watermark ~retry_after_ms
           ~idle_timeout_ms ~io_timeout_ms
           ~request_deadline_ms ())
        ~mk_session
    with
    | srv -> srv
    | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "cannot listen on %s: %s\n" addr
          (Unix.error_message e);
        Stdlib.exit 1
  in
  let bound =
    match (cf_addr, Server.Listener.port srv) with
    | Server.Listener.Tcp (h, _), Some p -> Printf.sprintf "%s:%d" h p
    | _ -> Server.Listener.addr_to_string cf_addr
  in
  Printf.eprintf
    "astql-server listening on %s (%d domain%s, queue depth %d)\n%!" bound
    domains
    (if domains = 1 then "" else "s")
    queue_depth;
  let stop_requested = Atomic.make false in
  let request_stop _ = Atomic.set stop_requested true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  while not (Atomic.get stop_requested) do
    try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Printf.eprintf "astql-server: shutting down (draining up to %d ms)\n%!"
    drain_ms;
  let t_stop = Obs.Metrics.now_ms () in
  Server.Listener.stop ~drain_ms srv;
  let drain_elapsed_ms = Obs.Metrics.now_ms () -. t_stop in
  (match durable with
  | None -> ()
  | Some (mgr, _, _) ->
      (* every request is done or disconnected: fold the log into a final
         checkpoint so the next boot skips replay entirely — unless the
         drain already consumed the shutdown window. A supervisor that
         sent SIGTERM follows with SIGKILL; a checkpoint cut down by it
         would be discarded at recovery anyway, while the WAL already
         holds every acknowledged write. Skipping is safe (recovery
         replays), so spend no time we were not given. *)
      if drain_ms > 0 && drain_elapsed_ms >= float_of_int drain_ms then begin
        Obs.Metrics.incr m_ckpt_skipped;
        Printf.eprintf
          "astql-server: durable.checkpoint_skipped — drain consumed the \
           shutdown window (%.0f of %d ms); WAL replay covers the rest\n\
           %!"
          drain_elapsed_ms drain_ms
      end
      else begin
        Durable.Manager.checkpoint mgr;
        Printf.eprintf "astql-server: final checkpoint at lsn %d\n%!"
          (Durable.Manager.checkpoint_lsn mgr)
      end;
      Durable.Manager.close mgr);
  match metrics_out with
  | None -> ()
  | Some path -> (
      try Obs.Metrics.dump path
      with Sys_error m -> Printf.eprintf "cannot write metrics: %s\n" m)

open Cmdliner

let addr_arg =
  let doc =
    "Listen address: $(i,HOST:PORT) for TCP (port 0 picks an ephemeral \
     port, printed on stderr) or a filesystem path for a Unix-domain \
     socket."
  in
  let env = Cmd.Env.info "ASTQL_ADDR" ~doc:"Default listen address." in
  Arg.(
    value & opt string "127.0.0.1:7433" & info [ "a"; "addr" ] ~env ~docv:"ADDR" ~doc)

let domains_arg =
  let doc = "Worker domains serving connections in parallel." in
  let env = Cmd.Env.info "ASTQL_DOMAINS" ~doc:"Default worker domain count." in
  Arg.(value & opt int 4 & info [ "domains" ] ~env ~docv:"N" ~doc)

let queue_depth_arg =
  let doc =
    "Accepted connections waiting for a worker beyond this are refused \
     with a typed $(b,overloaded) error — backpressure is explicit, the \
     queue never grows without bound."
  in
  let env = Cmd.Env.info "ASTQL_QUEUE_DEPTH" ~doc:"Default waiting-queue depth." in
  Arg.(value & opt int 64 & info [ "queue-depth" ] ~env ~docv:"N" ~doc)

let backlog_arg =
  let doc = "listen(2) backlog for connection bursts." in
  Arg.(value & opt int 64 & info [ "backlog" ] ~docv:"N" ~doc)

let request_deadline_arg =
  let doc =
    "Default per-request deadline in milliseconds (a request's own \
     $(b,opts.deadline_ms) takes precedence; either can only tighten \
     $(b,--deadline-ms)). On expiry the request degrades to the best plan \
     found — annotated in the reply — instead of failing. 0 disables."
  in
  let env =
    Cmd.Env.info "ASTQL_REQUEST_DEADLINE_MS" ~doc:"Default request deadline."
  in
  Arg.(
    value & opt float 0. & info [ "request-deadline-ms" ] ~env ~docv:"MS" ~doc)

let idle_timeout_arg =
  let doc =
    "Reap connections idle between requests after $(docv) milliseconds, \
     freeing their worker (quiet close, counted in \
     $(b,server.idle_reaped)). 0 disables."
  in
  let env = Cmd.Env.info "ASTQL_IDLE_TIMEOUT_MS" ~doc:"Default idle timeout." in
  Arg.(value & opt float 0. & info [ "idle-timeout-ms" ] ~env ~docv:"MS" ~doc)

let io_timeout_arg =
  let doc =
    "Bound mid-frame reads and response writes to $(docv) milliseconds: a \
     peer that stalls inside a request line or stops draining its socket \
     costs one connection, never a worker. 0 disables."
  in
  let env = Cmd.Env.info "ASTQL_IO_TIMEOUT_MS" ~doc:"Default io timeout." in
  Arg.(value & opt float 0. & info [ "io-timeout-ms" ] ~env ~docv:"MS" ~doc)

let degrade_watermark_arg =
  let doc =
    "First overload rung: with at least $(docv) jobs waiting, requests \
     are served from base plans (the rewrite search is skipped) and \
     replies carry a $(b,degraded) annotation. Defaults to half the queue \
     depth; -1 disables the rung."
  in
  let env =
    Cmd.Env.info "ASTQL_DEGRADE_WATERMARK" ~doc:"Default degrade watermark."
  in
  Arg.(
    value
    & opt (some int) None
    & info [ "degrade-watermark" ] ~env ~docv:"N" ~doc)

let retry_after_arg =
  let doc =
    "Backoff hint (milliseconds) carried by $(b,overloaded) rejections; \
     well-behaved clients wait at least this long before reconnecting."
  in
  let env = Cmd.Env.info "ASTQL_RETRY_AFTER_MS" ~doc:"Default backoff hint." in
  Arg.(value & opt int 50 & info [ "retry-after-ms" ] ~env ~docv:"MS" ~doc)

let drain_ms_arg =
  let doc =
    "On SIGTERM/SIGINT, give requests already executing up to $(docv) \
     milliseconds to finish and flush before forcing disconnection."
  in
  let env = Cmd.Env.info "ASTQL_DRAIN_MS" ~doc:"Default drain bound." in
  Arg.(value & opt int 2000 & info [ "drain-ms" ] ~env ~docv:"MS" ~doc)

let metrics_out_arg =
  let doc =
    "Write the metrics registry (including the $(b,server.*) serving \
     metrics) to $(docv) as JSON on shutdown."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let demo_flag =
  let doc = "Preload the paper's star schema and generated data." in
  Arg.(value & flag & info [ "demo" ] ~doc)

let () =
  let doc = "serve astql over a socket with a pool of domains" in
  let info = Cmd.info "astql-server" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            const serve $ addr_arg $ domains_arg $ queue_depth_arg
            $ backlog_arg $ Cli.no_rewrite_flag $ Cli.auto_maint_flag
            $ Cli.deadline_arg $ Cli.match_budget_arg $ request_deadline_arg
            $ idle_timeout_arg $ io_timeout_arg $ degrade_watermark_arg
            $ retry_after_arg $ Cli.fault_arg $ Cli.crash_arg
            $ metrics_out_arg $ demo_flag $ Cli.scale_arg $ Cli.durability_arg
            $ Cli.fsync_arg $ Cli.checkpoint_every_arg $ drain_ms_arg
            $ Cli.files_arg)))
