(* astql — interactive shell / script runner for the summary-table rewriter.

   Subcommands:
     astql run FILE...      execute SQL scripts (DDL, DML, summary tables,
                            queries, EXPLAIN REWRITE)
     astql repl             interactive shell (empty database)
     astql demo             interactive shell preloaded with the paper's
                            star schema and generated data
     astql advise FILE      recommend summary tables for a query workload
     astql lint FILE        static checks: queries are elaborated to QGM
                            and validated (Lint.Validate) without running;
                            summary-table definitions get definition-time
                            diagnostics (Lint.Advisor)

   Error containment: a failing statement mid-script — lexical, parse,
   semantic or runtime — prints a classified error with line/column context
   and execution continues with the next statement; the REPL never dies on
   bad input. Non-interactive runs exit non-zero at end-of-script when
   anything failed. *)

let print_outcome = function
  | Mvstore.Session.Msg m -> print_endline m
  | Mvstore.Session.Table rel ->
      print_endline (Data.Relation.to_string rel)
  | Mvstore.Session.Plan p -> print_string p

(* line/column of a byte offset, for error context *)
let pos_context text off =
  let off = min (max off 0) (String.length text) in
  let line = ref 1 and bol = ref 0 in
  String.iteri
    (fun i c ->
      if i < off && c = '\n' then begin
        incr line;
        bol := i + 1
      end)
    text;
  Printf.sprintf "line %d, column %d" !line (off - !bol + 1)

(* Execute one parsed statement; print its outcome or a classified error.
   Returns false when the statement failed. Nothing may escape: an
   unclassified exception is reported as internal and the script goes on. *)
let exec_one session stmt =
  match print_outcome (Mvstore.Session.exec_stmt session stmt) with
  | () -> true
  | exception Mvstore.Session.Session_error m ->
      Printf.printf "error: %s\n" m;
      false
  | exception Engine.Exec.Exec_error m ->
      Printf.printf "execution error: %s\n" m;
      false
  | exception Engine.Eval.Eval_error m ->
      Printf.printf "evaluation error: %s\n" m;
      false
  | exception Mvstore.Store.Mv_error m ->
      Printf.printf "summary-table error: %s\n" m;
      false
  | exception Division_by_zero ->
      print_endline "error: division by zero";
      false
  | exception ((Out_of_memory | Sys.Break) as e) -> raise e
  | exception e ->
      Printf.printf "internal error: %s (statement skipped)\n"
        (Printexc.to_string e);
      false

(* Walk a script statement by statement, calling [on_stmt] on each parsed
   statement (returning false marks failure). On a lexical/parse error,
   [on_syntax_error] is told the kind, message and line/column context,
   then scanning resumes after the next ';' — a broken statement never
   aborts the rest of the script. Returns false when anything failed. *)
let walk_script ~on_stmt ~on_syntax_error text =
  let n = String.length text in
  (* resume after the next ';' at or beyond [off] *)
  let resume_point off =
    match String.index_from_opt text (min off (n - 1)) ';' with
    | Some i -> Some (i + 1)
    | None | (exception Invalid_argument _) -> None
  in
  let rec from_offset start ok =
    if start >= n || String.trim (String.sub text start (n - start)) = "" then
      ok
    else
      match Sqlsyn.Parser.script_start (String.sub text start (n - start)) with
      | cursor -> statements cursor start ok
      | exception Sqlsyn.Lexer.Lex_error (m, p) ->
          syntax_error "lexical error" m (start + p)
  and statements cursor base ok =
    match Sqlsyn.Parser.script_next cursor with
    | None -> ok
    | Some stmt -> statements cursor base (on_stmt stmt && ok)
    | exception Sqlsyn.Parser.Parse_error (m, p) ->
        syntax_error "parse error" m (base + p)
    | exception Sqlsyn.Lexer.Lex_error (m, p) ->
        syntax_error "lexical error" m (base + p)
  and syntax_error label m off =
    on_syntax_error label m (pos_context text off);
    match resume_point off with
    | Some next -> from_offset next false
    | None -> false
  in
  from_offset 0 true

(* Execute statements one at a time, printing each outcome as it happens. *)
let exec_text session text =
  walk_script
    ~on_stmt:(exec_one session)
    ~on_syntax_error:(fun label m ctx ->
      Printf.printf "%s at %s: %s\n" label ctx m)
    text

let print_stats () = print_string (Obs.Metrics.to_text ~prefix:"plan." ())

let print_health ?durable session =
  print_endline (Mvstore.Session.health session);
  match durable with
  | Some mgr -> print_endline (Durable.Manager.describe mgr)
  | None -> ()

let print_metrics () = print_string (Obs.Metrics.to_text ())

let print_limits session =
  Printf.printf "limits: %s\n"
    (Govern.Budget.describe (Mvstore.Session.config session).limits)

(* \limits [off | deadline MS | matches N | candidates N | rows N], each
   value under the same validity rule as the flags and the environment *)
let set_limits session args =
  let module B = Govern.Budget in
  let cfg = Mvstore.Session.config session in
  let cur = cfg.limits in
  let set l = Mvstore.Session.set_config session { cfg with limits = l } in
  let bad () =
    print_endline
      "usage: \\limits [off | deadline MS | matches N | candidates N | rows N]"
  in
  let count v f =
    match B.parse_count ~name:"count" v with
    | Ok n -> set (f n)
    | Error _ -> bad ()
  in
  (match args with
  | [] -> ()
  | [ "off" ] -> set B.unlimited
  | [ "deadline"; v ] -> (
      match B.parse_deadline_ms ~name:"deadline" v with
      | Ok ms -> set { cur with B.bl_deadline_ms = Some ms }
      | Error _ -> bad ())
  | [ "matches"; v ] -> count v (fun n -> { cur with B.bl_matches = Some n })
  | [ "candidates"; v ] ->
      count v (fun n -> { cur with B.bl_candidates = Some n })
  | [ "rows"; v ] -> count v (fun n -> { cur with B.bl_rows = Some n })
  | _ -> bad ());
  print_limits session

let print_lint session =
  match Mvstore.Session.lint_summaries session with
  | [] -> print_endline "no summary tables defined"
  | entries ->
      let clean = ref 0 in
      List.iter
        (fun (name, diags) ->
          match diags with
          | [] -> incr clean
          | ds ->
              List.iter
                (fun d ->
                  Printf.printf "%s: %s\n" name (Lint.Advisor.render d))
                ds)
        entries;
      if !clean > 0 then
        Printf.printf "%d summary table%s clean\n" !clean
          (if !clean = 1 then "" else "s")

(* One statement of [astql lint]: DDL executes quietly so later statements
   resolve against the right catalog; DML is skipped (table contents don't
   matter statically); queries are elaborated to QGM and validated without
   running; summary definitions additionally collect Advisor diagnostics.
   Returns false on a hard failure (semantic error, validator violation). *)
let lint_stmt session ~file ~stmt_no ~warnings stmt =
  let module A = Sqlsyn.Ast in
  let cat () = Engine.Db.catalog (Mvstore.Session.db session) in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.printf "%s: %s\n" file m;
        false)
      fmt
  in
  let validate_query what q =
    match Qgm.Builder.build (cat ()) q with
    | exception Qgm.Builder.Sem_error m ->
        fail "%s: semantic error: %s" what m
    | g -> (
        (* deep mode adds the V118 prover pass (statically-unsatisfiable
           predicates) on top of the structural checks *)
        match Lint.Validate.check ~cat:(cat ()) ~deep:true g with
        | [] -> true
        | vs ->
            List.iter
              (fun v ->
                Printf.printf "%s: %s: %s\n" file what
                  (Lint.Validate.render v))
              vs;
            false)
  in
  let exec_quiet () =
    match Mvstore.Session.exec_stmt session stmt with
    | _ -> true
    | exception Mvstore.Session.Session_error m -> fail "error: %s" m
    | exception Mvstore.Store.Mv_error m -> fail "summary-table error: %s" m
  in
  match stmt with
  | A.Create_table _ | A.Drop_summary _ -> exec_quiet ()
  | A.Insert _ | A.Delete _ | A.Copy_from _ | A.Copy_to _
  | A.Refresh_summary _ ->
      true
  | A.Create_summary { cs_name; cs_query } ->
      validate_query (Printf.sprintf "summary %s" cs_name) cs_query
      && exec_quiet ()
      &&
      ((match
          List.assoc_opt cs_name (Mvstore.Session.lint_summaries session)
        with
       | Some ds ->
           List.iter
             (fun d ->
               incr warnings;
               Printf.printf "%s: summary %s: %s\n" file cs_name
                 (Lint.Advisor.render d))
             ds
       | None -> ());
       true)
  | A.Select q | A.Explain_rewrite (q, _) | A.Explain_plan q ->
      validate_query (Printf.sprintf "statement %d" stmt_no) q

let print_traces session =
  match Mvstore.Session.traces session with
  | [] ->
      print_endline
        "no traces recorded (\\trace on, then run a SELECT or EXPLAIN)"
  | traces ->
      List.iter
        (fun (label, tr) ->
          Printf.printf "-- %s\n" label;
          print_string (Obs.Trace.render tr))
        traces

let repl ?durable session =
  print_endline
    "astql — type SQL statements ending with ';'  (\\q to quit, \\stats for \
     planner counters, \\health for fault-isolation and maintenance \
     counters, \\limits to show/set per-statement resource budgets, \\trace \
     on|off|show for planning traces, \\metrics [json] for the metrics \
     registry, \\lint for summary-table diagnostics)";
  let buf = Buffer.create 256 in
  let rec loop () =
    print_string (if Buffer.length buf = 0 then "astql> " else "   ...> ");
    flush stdout;
    match In_channel.input_line stdin with
    | None -> ()
    | Some line ->
        let trimmed = String.trim line in
        if trimmed = "\\q" || trimmed = "quit" then ()
        else if trimmed = "\\stats" then begin
          print_stats ();
          loop ()
        end
        else if trimmed = "\\health" then begin
          print_health ?durable session;
          loop ()
        end
        else if trimmed = "\\limits" then begin
          print_limits session;
          loop ()
        end
        else if
          String.length trimmed > 8 && String.sub trimmed 0 8 = "\\limits "
        then begin
          set_limits session
            (String.sub trimmed 8 (String.length trimmed - 8)
            |> String.split_on_char ' '
            |> List.map String.trim
            |> List.filter (fun s -> s <> ""));
          loop ()
        end
        else if trimmed = "\\lint" then begin
          print_lint session;
          loop ()
        end
        else if trimmed = "\\trace on" then begin
          Mvstore.Session.set_trace session true;
          print_endline "planning traces on";
          loop ()
        end
        else if trimmed = "\\trace off" then begin
          Mvstore.Session.set_trace session false;
          Mvstore.Session.clear_traces session;
          print_endline "planning traces off";
          loop ()
        end
        else if trimmed = "\\trace show" || trimmed = "\\trace" then begin
          print_traces session;
          loop ()
        end
        else if trimmed = "\\metrics json" then begin
          print_endline (Obs.Json.to_string (Obs.Metrics.to_json ()));
          loop ()
        end
        else if trimmed = "\\metrics" then begin
          print_metrics ();
          loop ()
        end
        else begin
          Buffer.add_string buf line;
          Buffer.add_char buf '\n';
          if String.contains line ';' then begin
            let text = Buffer.contents buf in
            Buffer.clear buf;
            ignore (exec_text session text)
          end;
          loop ()
        end
  in
  loop ()

let make_session ~config ~demo ~scale =
  if demo then Cli.demo_session ~config ~scale ~log:print_endline
  else Mvstore.Session.create ~config ()

(* Build the session for run/repl/demo and hand it to [k] together with
   the durability manager when one is active. Without --durability this
   is the ordinary private in-process session. With it, boot-time
   recovery runs first, the session attaches to the recovered shared
   state with the commit hook installed (every committed write statement
   is WAL-logged before it is published), quarantined summaries from
   degraded recovery are queued for self-healing rebuild, and — however
   [k] returns or raises — a final checkpoint folds the WAL away so the
   next boot replays nothing (skipped when nothing was logged since the
   newest checkpoint). *)
let with_session ~config ~demo ~scale ~durability ~fsync ~checkpoint_every k
    =
  match durability with
  | None -> k (make_session ~config ~demo ~scale) None
  | Some dir ->
      let mgr, shared, report =
        Cli.recover ~label:"" ~dir ~fsync ~checkpoint_every
      in
      if
        demo
        && not
             (Cli.seed_durable mgr shared (fun () ->
                  make_session ~config ~demo ~scale))
      then
        Printf.eprintf
          "recovered state is non-empty; ignoring demo seed data\n%!";
      let session = Mvstore.Session.attach ~config shared in
      Durable.Manager.bind mgr session;
      List.iter
        (Mvstore.Maint.enqueue (Mvstore.Session.maint session))
        report.Durable.Manager.r_quarantined;
      Fun.protect
        ~finally:(fun () ->
          ignore (Durable.Manager.final_checkpoint mgr);
          Durable.Manager.close mgr)
        (fun () -> k session (Some mgr))

open Cmdliner

let verify_conv =
  let parse s =
    match String.lowercase_ascii (String.trim s) with
    | "off" -> Ok Mvstore.Session.Off
    | "always" -> Ok Mvstore.Session.Always
    | "static" -> Ok Mvstore.Session.Static
    | s when String.length s > 7 && String.sub s 0 7 = "sample:" -> (
        match float_of_string_opt (String.sub s 7 (String.length s - 7)) with
        | Some p when p > 0. && p <= 1. -> Ok (Mvstore.Session.Sampled p)
        | _ -> Error (`Msg "expected sample:P with 0 < P <= 1"))
    | _ -> Error (`Msg "expected off, always, static, or sample:P")
  in
  let print fmt = function
    | Mvstore.Session.Off -> Format.pp_print_string fmt "off"
    | Mvstore.Session.Always -> Format.pp_print_string fmt "always"
    | Mvstore.Session.Static -> Format.pp_print_string fmt "static"
    | Mvstore.Session.Sampled p -> Format.fprintf fmt "sample:%g" p
  in
  Arg.conv (parse, print)

let verify_arg =
  let doc =
    "Runtime result verification of rewritten queries: $(b,off), \
     $(b,always), $(b,static) (verify unless the static prover certified \
     every applied rewrite step), or $(b,sample:P) (verify a deterministic \
     fraction P of rewritten queries). On mismatch the summary table is \
     quarantined and the base plan's answer is served."
  in
  Arg.(value & opt verify_conv Mvstore.Session.Off & info [ "verify" ] ~doc)

(* The shared session flags plus --verify, which only astql takes. *)
let config_term =
  let with_verify c verify = { c with Mvstore.Session.verify } in
  Term.(const with_verify $ Cli.config_term $ verify_arg)

let stats_flag =
  let doc =
    "Print the rewrite-planner counters (the metrics registry's plan.* \
     entries: requests, cache hits/misses, attempted and filtered \
     candidates) after execution."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let health_flag =
  let doc =
    "Print fault-isolation counters (fallbacks, quarantines, verification \
     mismatches) after execution."
  in
  Arg.(value & flag & info [ "health" ] ~doc)

let metrics_out_arg =
  let doc =
    "Write the metrics registry (planner, matcher, executor counters and \
     latency histograms) to $(docv) as JSON on exit. The schema is the one \
     embedded in the bench harness's BENCH_results.json."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let dump_metrics = function
  | None -> ()
  | Some path ->
      (try Obs.Metrics.dump path
       with Sys_error m -> Printf.eprintf "cannot write metrics: %s\n" m)

let run_cmd =
  let doc = "Execute SQL script files." in
  let run config fault crash stats health metrics_out durability fsync
      checkpoint_every files =
    Cli.arm_faults fault;
    Cli.arm_crashes crash;
    let ok =
      with_session ~config ~demo:false ~scale:1 ~durability ~fsync
        ~checkpoint_every
        (fun session durable ->
          let ok =
            List.fold_left
              (fun ok f ->
                exec_text session
                  (In_channel.with_open_text f In_channel.input_all)
                && ok)
              true files
          in
          if stats then print_stats ();
          if health then print_health ?durable session;
          ok)
    in
    dump_metrics metrics_out;
    if not ok then Stdlib.exit 1
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ config_term $ Cli.fault_arg $ Cli.crash_arg $ stats_flag
      $ health_flag $ metrics_out_arg $ Cli.durability_arg $ Cli.fsync_arg
      $ Cli.checkpoint_every_arg $ Cli.files_arg)

let repl_cmd =
  let doc = "Interactive shell over an empty database." in
  let run config fault crash metrics_out durability fsync checkpoint_every =
    Cli.arm_faults fault;
    Cli.arm_crashes crash;
    with_session ~config ~demo:false ~scale:1 ~durability ~fsync
      ~checkpoint_every (fun session durable -> repl ?durable session);
    dump_metrics metrics_out
  in
  Cmd.v (Cmd.info "repl" ~doc)
    Term.(
      const run $ config_term $ Cli.fault_arg $ Cli.crash_arg
      $ metrics_out_arg $ Cli.durability_arg $ Cli.fsync_arg
      $ Cli.checkpoint_every_arg)

let demo_cmd =
  let doc = "Interactive shell preloaded with the paper's star schema." in
  let run config fault crash scale metrics_out durability fsync
      checkpoint_every =
    Cli.arm_faults fault;
    Cli.arm_crashes crash;
    with_session ~config ~demo:true ~scale ~durability ~fsync
      ~checkpoint_every (fun session durable -> repl ?durable session);
    dump_metrics metrics_out
  in
  Cmd.v (Cmd.info "demo" ~doc)
    Term.(
      const run $ config_term $ Cli.fault_arg $ Cli.crash_arg $ Cli.scale_arg
      $ metrics_out_arg $ Cli.durability_arg $ Cli.fsync_arg
      $ Cli.checkpoint_every_arg)

let advise_cmd =
  let doc =
    "Recommend summary tables for a workload (one SELECT per statement)."
  in
  let run files =
    let queries =
      List.concat_map
        (fun f ->
          In_channel.with_open_text f In_channel.input_all
          |> String.split_on_char ';'
          |> List.map String.trim
          |> List.filter (fun s -> s <> ""))
        files
    in
    let recs = Mvstore.Advisor.recommend Catalog.empty queries in
    if recs = [] then print_endline "no recommendations (no aggregate queries found)"
    else
      List.iter
        (fun (r : Mvstore.Advisor.recommendation) ->
          Printf.printf "-- serves %d workload quer%s\n"
            (List.length r.rec_serves)
            (if List.length r.rec_serves = 1 then "y" else "ies");
          Printf.printf "CREATE SUMMARY TABLE %s AS %s;\n\n" r.rec_name r.rec_sql)
        recs
  in
  Cmd.v (Cmd.info "advise" ~doc) Term.(const run $ Cli.files_arg)

let strict_flag =
  let doc =
    "Treat summary-table lint warnings (L-codes) as errors: exit non-zero \
     when any are reported."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

let lint_cmd =
  let doc =
    "Statically check SQL scripts without executing queries: every SELECT \
     / EXPLAIN is elaborated to QGM and run through the structural \
     validator (V-codes); CREATE SUMMARY TABLE definitions get \
     definition-time diagnostics (L-codes). DDL is applied to an empty \
     in-memory catalog so names resolve; DML is skipped. Exits non-zero \
     on syntax errors, semantic errors or validator violations."
  in
  let run strict files =
    let session =
      Mvstore.Session.create
        ~config:{ (Mvstore.Session.default_config ()) with rewrite = false }
        ()
    in
    let warnings = ref 0 in
    let checked = ref 0 in
    let ok =
      List.fold_left
        (fun ok f ->
          let text = In_channel.with_open_text f In_channel.input_all in
          let stmt_no = ref 0 in
          walk_script
            ~on_stmt:(fun stmt ->
              incr stmt_no;
              incr checked;
              lint_stmt session ~file:f ~stmt_no:!stmt_no ~warnings stmt)
            ~on_syntax_error:(fun label m ctx ->
              Printf.printf "%s: %s at %s: %s\n" f label ctx m)
            text
          && ok)
        true files
    in
    Printf.printf "lint: %d statement%s checked, %d warning%s%s\n" !checked
      (if !checked = 1 then "" else "s")
      !warnings
      (if !warnings = 1 then "" else "s")
      (if ok then "" else ", errors found");
    if (not ok) || (strict && !warnings > 0) then Stdlib.exit 1
  in
  Cmd.v (Cmd.info "lint" ~doc) Term.(const run $ strict_flag $ Cli.files_arg)

(* --- connect: remote shell over the wire protocol ----------------------- *)

let print_wire_outcome = function
  | Server.Wire.Msg m -> print_endline m
  | Server.Wire.Plan p -> print_string p
  | Server.Wire.Table (cols, rows) ->
      print_endline (Data.Relation.to_string (Data.Relation.create cols rows))

(* Send one script to the server; print outcomes or the typed error.
   Returns false when the request failed. With [attempts > 1] the robust
   path is used: transport faults and overload shed retry under the
   client's idempotency discipline instead of raising. *)
let remote_exec ?(attempts = 1) client sql =
  let print_reply (r : Server.Wire.reply) =
    (match r.Server.Wire.rp_degraded with
    | [] -> ()
    | ds ->
        Printf.eprintf "note: degraded answer (%s)\n%!"
          (String.concat ", " ds));
    List.iter print_wire_outcome r.Server.Wire.rp_results;
    true
  in
  if attempts <= 1 then
    match Server.Client.request client sql with
    | Ok r -> print_reply r
    | Error e ->
        Printf.printf "error: %s\n" (Server.Wire.error_to_string e);
        false
    | exception Server.Lineio.Read_timeout _ ->
        Printf.printf "error: no response within the timeout\n";
        false
  else
    match Server.Client.request_robust client ~attempts sql with
    | Ok r -> print_reply r
    | Error f ->
        Printf.printf "error: %s\n" (Server.Client.failure_to_string f);
        false

(* The remote REPL reuses the local shell's read-accumulate-until-';'
   loop, but each complete buffer travels the wire instead of hitting a
   local session. A typed error never kills the shell. *)
let remote_repl ~attempts client =
  print_endline
    "astql — connected; type SQL statements ending with ';'  (\\q to quit)";
  let buf = Buffer.create 256 in
  let rec loop () =
    print_string (if Buffer.length buf = 0 then "astql> " else "   ...> ");
    flush stdout;
    match In_channel.input_line stdin with
    | None -> ()
    | Some line ->
        let trimmed = String.trim line in
        if trimmed = "\\q" || trimmed = "quit" then ()
        else begin
          Buffer.add_string buf line;
          Buffer.add_char buf '\n';
          if String.contains line ';' then begin
            let text = Buffer.contents buf in
            Buffer.clear buf;
            match remote_exec ~attempts client text with
            | (_ : bool) -> ()
            | exception End_of_file ->
                print_endline "server closed the connection";
                raise Exit
          end;
          loop ()
        end
  in
  (try loop () with Exit -> ());
  Server.Client.close client

let connect_cmd =
  let doc =
    "Connect to a running astql-server: an interactive remote shell, or \
     non-interactive execution of $(b,--execute) SQL and script FILEs \
     (exits non-zero if any request failed)."
  in
  let addr_pos =
    let doc = "Server address: $(i,HOST:PORT) or a Unix-socket path." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ADDR" ~doc)
  in
  let exec_arg =
    let doc = "Execute $(docv) remotely and exit." in
    Arg.(value & opt (some string) None & info [ "e"; "execute" ] ~docv:"SQL" ~doc)
  in
  let conn_files =
    Arg.(value & pos_right 0 non_dir_file [] & info [] ~docv:"FILE")
  in
  let retry_arg =
    let doc =
      "Retry connection establishment up to $(docv) times with bounded \
       exponential backoff (50ms doubling, capped at 1s) — for scripts \
       racing a server that is still booting or recovering a WAL. Also \
       budgets each reconnect the $(b,--retries) path makes."
    in
    Arg.(value & opt int 0 & info [ "retry" ] ~docv:"N" ~doc)
  in
  let timeout_arg =
    let doc =
      "Per-request response timeout in milliseconds (0 = wait forever). A \
       server that stalls past it counts as a transport failure — \
       retryable under $(b,--retries) when the script is read-only."
    in
    Arg.(value & opt float 0. & info [ "timeout-ms" ] ~docv:"MS" ~doc)
  in
  let retries_arg =
    let doc =
      "Request-level resilience: try each request up to $(docv) times, \
       reconnecting with jittered exponential backoff (honoring the \
       server's $(b,retry_after_ms) hint when shed). Typed definitive \
       errors never retry; ambiguous transport failures retry only for \
       read-only scripts — a write whose fate is unknown fails instead of \
       risking double execution."
    in
    Arg.(value & opt int 1 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let run addr retries timeout_ms attempts sql files =
    if attempts < 1 then begin
      Printf.eprintf "--retries must be >= 1\n";
      Stdlib.exit 2
    end;
    let client =
      try Server.Client.connect ~retries ~timeout_ms addr
      with
      | Unix.Unix_error (e, _, _) ->
          Printf.eprintf "cannot connect to %s: %s\n" addr
            (Unix.error_message e);
          Stdlib.exit 1
      | Failure m ->
          Printf.eprintf "cannot connect to %s: %s\n" addr m;
          Stdlib.exit 1
    in
    let scripts =
      (match sql with Some s -> [ s ] | None -> [])
      @ List.map
          (fun f -> In_channel.with_open_text f In_channel.input_all)
          files
    in
    if scripts = [] then remote_repl ~attempts client
    else begin
      let ok =
        try
          List.fold_left
            (fun ok s -> remote_exec ~attempts client s && ok)
            true scripts
        with End_of_file ->
          Printf.eprintf "server closed the connection\n";
          false
      in
      Server.Client.close client;
      if not ok then Stdlib.exit 1
    end
  in
  Cmd.v (Cmd.info "connect" ~doc)
    Term.(
      const run $ addr_pos $ retry_arg $ timeout_arg $ retries_arg $ exec_arg
      $ conn_files)

let () =
  let doc = "answering complex SQL queries using automatic summary tables" in
  let info = Cmd.info "astql" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; repl_cmd; demo_cmd; advise_cmd; lint_cmd; connect_cmd ]))
