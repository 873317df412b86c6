(* Command-line plumbing shared by astql and astql-server: the flags both
   binaries accept, with one name, environment variable, default and help
   text each, and the helpers that turn their values into engine
   settings. *)

open Cmdliner

(* Per-statement resource limits: the environment defaults
   (ASTQL_DEADLINE_MS / ASTQL_MATCH_BUDGET) overridden by the flags. *)
let limits_of ~deadline_ms ~match_budget =
  let module B = Govern.Budget in
  let l = B.default_limits () in
  let l =
    match deadline_ms with
    | None -> l
    | Some ms -> { l with B.bl_deadline_ms = Some ms }
  in
  match match_budget with
  | None -> l
  | Some n -> { l with B.bl_matches = Some n }

let arm_with ~flag arm = function
  | None -> ()
  | Some spec -> (
      match arm spec with
      | Ok () -> ()
      | Error m ->
          Printf.eprintf "bad --%s spec: %s\n" flag m;
          Stdlib.exit 2)

let arm_faults = arm_with ~flag:"fault" Guard.Fault.arm_spec
let arm_crashes = arm_with ~flag:"crash" Guard.Fault.arm_crash_spec

let no_rewrite_flag =
  let doc = "Disable transparent summary-table rewriting." in
  Arg.(value & flag & info [ "no-rewrite" ] ~doc)

let fault_arg =
  let doc =
    "Arm deterministic fault-injection points (testing): comma-separated \
     $(i,point)[:$(i,N)] — the Nth hit of that point fails (default 1). \
     Points: $(b,navigate), $(b,match), $(b,compensate), $(b,translate); \
     $(b,corrupt) perturbs a rewritten result at run time (the verify \
     oracle catches it); $(b,corrupt_plan) breaks the chosen plan's IR \
     before the final static check (which rejects it); $(b,refresh); \
     $(b,delay) stalls every hit from the Nth on, for exercising \
     deadlines; $(b,accept) crashes a server connection handler, for \
     exercising containment; and the wire points $(b,wire_partial_write), \
     $(b,wire_stall_read), $(b,wire_disconnect), $(b,wire_corrupt)."
  in
  Arg.(value & opt (some string) None & info [ "fault" ] ~docv:"SPEC" ~doc)

let crash_arg =
  let doc =
    "Arm crash-injection points (testing): comma-separated \
     $(i,point)[:$(i,N)] over $(b,wal_append), $(b,wal_fsync), \
     $(b,checkpoint_write), $(b,checkpoint_rename) — the Nth hit SIGKILLs \
     the process at that exact durability step, exactly like kill -9."
  in
  let env = Cmd.Env.info "ASTQL_CRASH" ~doc:"Default crash spec." in
  Arg.(value & opt (some string) None & info [ "crash" ] ~env ~docv:"SPEC" ~doc)

let deadline_arg =
  let doc =
    "Per-statement wall-clock deadline in milliseconds. When planning \
     overruns it, the best-so-far (possibly unrewritten) plan is used and \
     EXPLAIN REWRITE reports $(b,degraded); when rewritten execution \
     overruns it, the base plan is re-run unbudgeted. Defaults to \
     $(b,ASTQL_DEADLINE_MS) from the environment, else unlimited."
  in
  Arg.(
    value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let match_budget_arg =
  let doc =
    "Per-statement cap on match-function invocations during rewrite \
     planning. Defaults to $(b,ASTQL_MATCH_BUDGET) from the environment, \
     else unlimited."
  in
  Arg.(value & opt (some int) None & info [ "match-budget" ] ~docv:"N" ~doc)

let auto_maint_flag =
  let doc =
    "Self-healing maintenance: auto-refresh summary tables that DML left \
     stale, at statement boundaries under the session budget, with \
     exponential backoff and quarantine after repeated refresh failures."
  in
  Arg.(value & flag & info [ "auto-maint" ] ~doc)

let durability_arg =
  let doc =
    "Durability directory (WAL + checkpoints). On boot the newest valid \
     checkpoint is loaded and the WAL suffix replayed; afterwards every \
     committed write statement is logged before it is published, and a \
     final checkpoint is taken on exit. Unset = in-memory only."
  in
  let env =
    Cmd.Env.info "ASTQL_DURABILITY" ~doc:"Default durability directory."
  in
  Arg.(
    value & opt (some string) None & info [ "durability" ] ~env ~docv:"DIR" ~doc)

let fsync_conv =
  let parse s =
    match Durable.Wal.fsync_policy_of_string s with
    | Ok p -> Ok p
    | Error m -> Error (`Msg m)
  in
  let print fmt p =
    Format.pp_print_string fmt (Durable.Wal.fsync_policy_to_string p)
  in
  Arg.conv (parse, print)

let fsync_arg =
  let doc =
    "WAL fsync policy: $(b,always) (every commit), $(b,interval:N) (every \
     N commits), or $(b,off) (the OS decides)."
  in
  let env = Cmd.Env.info "ASTQL_FSYNC" ~doc:"Default WAL fsync policy." in
  Arg.(
    value
    & opt fsync_conv Durable.Wal.Always
    & info [ "fsync" ] ~env ~docv:"POLICY" ~doc)

let checkpoint_every_arg =
  let doc =
    "Fold the WAL into a fresh checkpoint every $(docv) commits (0 = only \
     at exit)."
  in
  let env =
    Cmd.Env.info "ASTQL_CHECKPOINT_EVERY" ~doc:"Default checkpoint interval."
  in
  Arg.(value & opt int 64 & info [ "checkpoint-every" ] ~env ~docv:"N" ~doc)

let scale_arg =
  let doc = "Demo data scale factor." in
  Arg.(value & opt int 1 & info [ "scale" ] ~doc)

let files_arg =
  Arg.(value & pos_all non_dir_file [] & info [] ~docv:"FILE")
