(* Command-line plumbing shared by astql and astql-server: the flags both
   binaries accept, with one name, environment variable, default and help
   text each, and the helpers that turn their values into engine
   settings. *)

open Cmdliner

(* A bad setting stops the binary with exit status 2. *)
let die msg =
  prerr_endline msg;
  Stdlib.exit 2

(* Per-statement resource limits: the environment defaults
   (ASTQL_DEADLINE_MS / ASTQL_MATCH_BUDGET) overridden by the flags. Both
   go through the one validity rule in Govern.Budget, so a malformed,
   negative, zero or nan value fails naming its variable or flag. *)
let limits_of ~deadline_ms ~match_budget =
  let module B = Govern.Budget in
  let l = try B.default_limits () with Invalid_argument m -> die m in
  let flag parse name v env =
    match v with
    | None -> env
    | Some s -> (
        match parse ~name s with Ok v -> Some v | Error m -> die m)
  in
  {
    l with
    B.bl_deadline_ms =
      flag B.parse_deadline_ms "--deadline-ms" deadline_ms l.B.bl_deadline_ms;
    bl_matches =
      flag B.parse_count "--match-budget" match_budget l.B.bl_matches;
  }

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
     $(b,ASTQL_DEADLINE_MS) from the environment, else unlimited. Either \
     must be a finite number > 0; anything else exits with status 2."
  in
  Arg.(
    value & opt (some string) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let match_budget_arg =
  let doc =
    "Per-statement cap on match-function invocations during rewrite \
     planning. Defaults to $(b,ASTQL_MATCH_BUDGET) from the environment, \
     else unlimited. Either must be an integer > 0; anything else exits \
     with status 2."
  in
  Arg.(
    value & opt (some string) None & info [ "match-budget" ] ~docv:"N" ~doc)

let auto_maint_flag =
  let doc =
    "Self-healing maintenance: auto-refresh summary tables that DML left \
     stale, at statement boundaries under the session budget, with \
     exponential backoff and quarantine after repeated refresh failures."
  in
  Arg.(value & flag & info [ "auto-maint" ] ~doc)

(* The session settings both binaries take from their flags, built once
   per process (astql adds --verify on top). *)
let config_term =
  let make no_rewrite deadline_ms match_budget auto_maint =
    {
      Mvstore.Session.rewrite = not no_rewrite;
      verify = Mvstore.Session.Off;
      limits = limits_of ~deadline_ms ~match_budget;
      auto_maint;
    }
  in
  Term.(
    const make $ no_rewrite_flag $ deadline_arg $ match_budget_arg
    $ auto_maint_flag)

(* The paper's star schema at [scale], loaded into a private session. *)
let demo_session ~config ~scale ~log =
  let tables =
    Workload.Star_schema.generate (Workload.Star_schema.scaled scale)
  in
  log
    (Printf.sprintf "loaded star schema (%d transactions)"
       (Data.Relation.cardinality (List.assoc "Trans" tables)));
  Mvstore.Session.of_tables ~config (Workload.Star_schema.catalog ()) tables

(* Boot-time recovery from the durability directory, reported on
   stderr after [label]. *)
let recover ~label ~dir ~fsync ~checkpoint_every =
  let mgr, shared, report =
    Durable.Manager.recover
      {
        Durable.Manager.c_dir = dir;
        c_fsync = fsync;
        c_checkpoint_every = checkpoint_every;
      }
  in
  Printf.eprintf "%sdurability on — %s\n%!" label
    (Durable.Manager.describe_report report);
  (mgr, shared, report)

(* With durability on, the recovered shared state is canonical: seed data
   applies only to a database recovered empty, and is folded into a
   checkpoint at once so it survives a crash before the first commit.
   [false] when the recovered state was non-empty and [seed] was not run. *)
let seed_durable mgr shared seed =
  let snap = Mvstore.Shared.snapshot shared in
  Catalog.tables (Engine.Db.catalog snap.Mvstore.Shared.sn_db) = []
  && begin
       let s = seed () in
       Mvstore.Shared.with_write shared (fun _ ->
           ( {
               Mvstore.Shared.sn_db = Mvstore.Session.db s;
               sn_store = Mvstore.Session.store s;
             },
             () ));
       Durable.Manager.checkpoint mgr;
       true
     end

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

let non_negative_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "%S is not a non-negative integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let checkpoint_every_arg =
  let doc =
    "Fold the WAL into a fresh checkpoint every $(docv) commits (0 = only \
     at exit)."
  in
  let env =
    Cmd.Env.info "ASTQL_CHECKPOINT_EVERY" ~doc:"Default checkpoint interval."
  in
  Arg.(
    value
    & opt non_negative_int 64
    & info [ "checkpoint-every" ] ~env ~docv:"N" ~doc)

let scale_arg =
  let doc = "Demo data scale factor." in
  Arg.(value & opt int 1 & info [ "scale" ] ~doc)

let files_arg =
  Arg.(value & pos_all non_dir_file [] & info [] ~docv:"FILE")
