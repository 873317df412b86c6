module A = Sqlsyn.Ast
module R = Data.Relation
module V = Data.Value

exception Session_error of string

let err fmt = Format.kasprintf (fun s -> raise (Session_error s)) fmt

type verify = Off | Sampled of float | Always | Static

type config = {
  rewrite : bool;
  verify : verify;
  limits : Govern.Budget.limits;
  auto_maint : bool;
}

let default_config () =
  { rewrite = true; verify = Off; limits = Govern.Budget.default_limits ();
    auto_maint = false }

(* What the durability layer logs for one committed write statement. SQL
   statements re-execute verbatim at replay; COPY FROM logs the loaded rows
   themselves (the source file may be gone by recovery time). *)
type commit =
  | Commit_sql of string
  | Commit_rows of { cr_table : string; cr_rows : R.row list }

type t = {
  mutable sdb : Engine.Db.t;
  mutable sstore : Store.t;
  mutable sshared : Shared.t option;
      (* when set, [sdb]/[sstore] are a per-statement cache of the shared
         snapshot: refreshed at statement entry, published (atomically,
         under the writer lock) only by mutating statements *)
  mutable sconfig : config;     (* defaults for every statement *)
  mutable sverify_acc : float;  (* deterministic sampling accumulator *)
  splanner : Plancache.Planner.t;
  mutable strace : bool;        (* record a span trace per planning attempt *)
  straces : Obs.Trace.ring;     (* recent traces (astql \trace show) *)
  mutable sdegraded : string list;
      (* budget-exhaustion reasons recorded since the last [reset_degraded]
         — the server annotates replies with them so a client can tell a
         full-quality answer from a degraded-but-correct one *)
  smaint : Maint.t;             (* deferred-maintenance queue *)
  mutable son_commit : (commit -> unit) option;
      (* durability hook: called inside the write-snapshot closure after the
         statement body succeeds and before the atomic publish — if it
         raises, nothing publishes (statement rollback), so a write is never
         visible without its log record *)
  mutable scopy_rows : R.row list;
      (* rows loaded by the current COPY FROM, for the commit record *)
}

type outcome = Msg of string | Table of R.t | Plan of string

let make ?(config = default_config ()) db =
  {
    sdb = db;
    sstore = Store.empty;
    sshared = None;
    sconfig = config;
    sverify_acc = 0.;
    splanner = Plancache.Planner.create ();
    strace = false;
    straces = Obs.Trace.ring ();
    sdegraded = [];
    smaint = Maint.create ();
    son_commit = None;
    scopy_rows = [];
  }

let create ?config () = make ?config (Engine.Db.create Catalog.empty)

let of_tables ?config cat tables =
  make ?config (Engine.Db.of_tables cat tables)

let of_batches ?config cat batches =
  make ?config (Engine.Db.of_batches cat batches)

(* ---------------- shared-state binding ---------------- *)

(* A session bound to a Shared.t reads (db, store) as one consistent
   snapshot at statement entry and publishes — atomically, under the
   single writer lock — only from mutating statements. The session object
   itself stays single-threaded (one connection, one domain); parallelism
   comes from many sessions over one Shared.t. *)

let attach ?config shared =
  let snap = Shared.snapshot shared in
  {
    (make ?config snap.Shared.sn_db) with
    sstore = snap.Shared.sn_store;
    sshared = Some shared;
  }

let share t =
  match t.sshared with
  | Some sh -> sh
  | None ->
      let sh = Shared.create t.sdb t.sstore in
      t.sshared <- Some sh;
      sh

let shared t = t.sshared

(* Run one statement's body against the right state. Reads take a lock-free
   snapshot; writes serialize on the shared writer lock and publish the
   session's (db, store) as one new snapshot — or, if the body raises,
   publish nothing, so a failed statement rolls back wholesale. *)
let with_snapshot t ~write f =
  match t.sshared with
  | None -> f ()
  | Some sh ->
      if write then
        Shared.with_write sh (fun snap ->
            t.sdb <- snap.Shared.sn_db;
            t.sstore <- snap.Shared.sn_store;
            let r = f () in
            ({ Shared.sn_db = t.sdb; sn_store = t.sstore }, r))
      else begin
        let snap = Shared.snapshot sh in
        t.sdb <- snap.Shared.sn_db;
        t.sstore <- snap.Shared.sn_store;
        f ()
      end

let set_on_commit t hook = t.son_commit <- hook
let config t = t.sconfig
let maint t = t.smaint
let set_trace t b = t.strace <- b
let traces t = Obs.Trace.items t.straces
let clear_traces t = Obs.Trace.clear t.straces

let set_config t c =
  if c.verify <> t.sconfig.verify then t.sverify_acc <- 0.;
  t.sconfig <- c

(* Degradation annotations: every place the budget ladder trades quality
   for survival records the typed reason here; the server resets before a
   request and folds what accumulated into the reply. Deduplicated — one
   request can exhaust the same budget in planning and execution. *)
let note_degraded t reason =
  if not (List.mem reason t.sdegraded) then
    t.sdegraded <- reason :: t.sdegraded

let degraded_reasons t = List.rev t.sdegraded
let reset_degraded t = t.sdegraded <- []

let db t = t.sdb
let store t = t.sstore
let planner t = t.splanner
let touch_store t = t.sstore <- Store.touch t.sstore

let health t =
  let count name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  Printf.sprintf
    "fallbacks:        %d\n\
     rewrite errors:   %d\n\
     quarantined:      %d pair(s) added, %d held now\n\
     quarantine skips: %d\n\
     verification:     %d run(s), %d mismatch(es), %d static skip(s)\n\
     budget:           %s (%d degraded plan(s))\n\
     %s"
    (count "guard.fallbacks")
    (count "plan.contained_errors")
    (count "guard.quarantined")
    (Plancache.Planner.quarantine_length t.splanner)
    (count "plan.quarantine_skips")
    (count "guard.verify_runs")
    (count "guard.verify_mismatches")
    (count "prove.verify_skips")
    (Govern.Budget.describe t.sconfig.limits)
    (count "govern.degraded_plans")
    (Maint.describe t.smaint)

(* ---------------- DDL ---------------- *)

let do_create_table t name (cols : A.col_def list) constraints =
  let pk =
    List.concat_map
      (function A.C_primary_key ks -> [ ks ] | _ -> [])
      constraints
  in
  let primary_key = match pk with [] -> [] | [ ks ] -> ks | _ -> err "multiple primary keys" in
  let tbl =
    {
      Catalog.tbl_name = name;
      tbl_cols =
        List.map
          (fun c ->
            {
              Catalog.col_name = c.A.cd_name;
              col_ty = c.A.cd_ty;
              nullable = not c.A.cd_not_null;
            })
          cols;
      primary_key;
      unique_keys =
        List.concat_map
          (function A.C_unique ks -> [ ks ] | _ -> [])
          constraints;
      foreign_keys =
        List.concat_map
          (function
            | A.C_foreign_key (ks, rt, rks) ->
                [ { Catalog.fk_cols = ks; fk_ref_table = rt; fk_ref_cols = rks } ]
            | _ -> [])
          constraints;
    }
  in
  (* a primary-key column is NOT NULL *)
  let pk_cols = Catalog.declared_columns tbl primary_key in
  let tbl =
    {
      tbl with
      Catalog.tbl_cols =
        List.map
          (fun c ->
            if List.mem c.Catalog.col_name pk_cols then { c with Catalog.nullable = false }
            else c)
          tbl.Catalog.tbl_cols;
    }
  in
  let cat =
    try Catalog.add_table (Engine.Db.catalog t.sdb) tbl
    with Invalid_argument m -> err "%s" m
  in
  t.sdb <- Engine.Db.put (Engine.Db.with_catalog t.sdb cat) name
             (R.empty (Catalog.column_names tbl));
  touch_store t;  (* DDL invalidates cached plans *)
  Msg (Printf.sprintf "table %s created" name)

(* ---------------- DML ---------------- *)

let const_eval (e : A.expr) =
  (* resolve the literal-only expression through the builder's core and
     evaluate it with no column environment *)
  let rec conv e =
    match e with
    | A.Lit v -> Qgm.Expr.Const v
    | A.Unop (op, e) -> Qgm.Expr.Unop (op, conv e)
    | A.Binop (op, a, b) -> Qgm.Expr.Binop (op, conv a, conv b)
    | A.Fncall (f, args) -> Qgm.Expr.Fncall (f, List.map conv args)
    | A.Case (arms, els) ->
        Qgm.Expr.Case
          (List.map (fun (c, v) -> (conv c, conv v)) arms, Option.map conv els)
    | A.Is_null (e, pos) -> Qgm.Expr.Is_null (conv e, pos)
    | _ -> err "INSERT values must be constant expressions"
  in
  try Engine.Eval.eval (fun (_ : unit) -> V.Null) (conv e)
  with Engine.Eval.Eval_error m -> err "bad INSERT value: %s" m

(* The one append path: INSERT, COPY FROM and WAL replay all fold the new
   rows through summary maintenance first (it needs the delta in
   isolation), queue the summaries that went stale, then append them to
   the table's stored batch. *)
let append_rows t tbl rows =
  let table = tbl.Catalog.tbl_name in
  let store', db', went_stale =
    Store.apply_insert t.sstore t.sdb ~table ~rows
  in
  t.sstore <- store';
  List.iter (Maint.enqueue t.smaint) went_stale;
  t.sdb <-
    Engine.Db.append db' table (R.create (Catalog.column_names tbl) rows)

let do_insert t table cols_opt rows =
  let cat = Engine.Db.catalog t.sdb in
  let tbl =
    match Catalog.find_table cat table with
    | Some tbl -> tbl
    | None -> err "unknown table %s" table
  in
  let all_cols = Catalog.column_names tbl in
  let target_cols = Option.value ~default:all_cols cols_opt in
  let positions =
    List.map
      (fun c ->
        match List.find_index (String.equal c) all_cols with
        | Some i -> i
        | None -> err "column %s not in table %s" c table)
      (Catalog.declared_columns tbl target_cols)
  in
  let width = List.length all_cols in
  let mkrow exprs =
    if List.length exprs <> List.length target_cols then
      err "INSERT row arity mismatch";
    let row = Array.make width V.Null in
    List.iter2 (fun i e -> row.(i) <- const_eval e) positions exprs;
    (* light integrity enforcement: reject NULL in NOT NULL columns *)
    List.iteri
      (fun i c ->
        match Catalog.find_column tbl c with
        | Some col when (not col.Catalog.nullable) && row.(i) = V.Null ->
            err "NULL value for NOT NULL column %s.%s" table c
        | _ -> ())
      all_cols;
    row
  in
  let new_rows = List.map mkrow rows in
  append_rows t tbl new_rows;
  Msg (Printf.sprintf "%d row(s) inserted into %s" (List.length new_rows) table)

let do_delete t table where =
  let cat = Engine.Db.catalog t.sdb in
  let name =
    match Catalog.find_table cat table with
    | Some tbl -> tbl.Catalog.tbl_name
    | None -> err "unknown table %s" table
  in
  (* both selections read the table as it was before the DELETE *)
  let db = t.sdb in
  let select where =
    let q = { A.empty_query with A.select_star = true; from = [ A.From_table (table, None) ]; where } in
    try Engine.Exec.run_batch db (Qgm.Builder.build cat q)
    with Qgm.Builder.Sem_error m -> err "semantic error: %s" m
  in
  (* the survivors: the rows the predicate does not make true (none
     without one) *)
  let kept =
    select
      (Some
         (match where with
         | Some p -> A.Binop ("OR", A.Unop ("NOT", p), A.Is_null (p, true))
         | None -> A.Lit (V.Bool false)))
  in
  (* maintain summaries with the deleted rows before mutating the table;
     they are selected only if a summary absorbs them *)
  let store', db', went_stale =
    Store.apply_delta ~sign:(-1) t.sstore db ~table:name ~delta:(lazy (select where))
  in
  t.sstore <- store';
  List.iter (Maint.enqueue t.smaint) went_stale;
  t.sdb <- Engine.Db.put_batch db' name kept;
  Msg
    (Printf.sprintf "%d row(s) deleted from %s"
       (Engine.Db.cardinality db name - kept.Engine.Column.nrows)
       table)

(* COPY: CSV bulk load/unload. Loads route through the same integrity and
   summary-maintenance path as INSERT. *)
let do_copy_from t table path header =
  let cat = Engine.Db.catalog t.sdb in
  let tbl =
    match Catalog.find_table cat table with
    | Some tbl -> tbl
    | None -> err "unknown table %s" table
  in
  let types = List.map (fun c -> c.Catalog.col_ty) tbl.Catalog.tbl_cols in
  let rows =
    try Data.Csv.load_file ~types ~header path with
    | Data.Csv.Csv_error m -> err "COPY %s: %s" table m
    | Sys_error m -> err "COPY %s: %s" table m
  in
  List.iter
    (fun row ->
      List.iteri
        (fun i c ->
          if (not c.Catalog.nullable) && row.(i) = V.Null then
            err "NULL value for NOT NULL column %s.%s" table
              c.Catalog.col_name)
        tbl.Catalog.tbl_cols)
    rows;
  append_rows t tbl rows;
  (* stash for the commit record: the CSV file may not exist at replay *)
  t.scopy_rows <- rows;
  Msg (Printf.sprintf "%d row(s) copied into %s" (List.length rows) table)

let do_copy_to t table path =
  match Engine.Db.get t.sdb (Catalog.declared_table (Engine.Db.catalog t.sdb) table) with
  | None -> err "unknown table %s" table
  | Some rel -> (
      try
        Data.Csv.save_file rel path;
        Msg
          (Printf.sprintf "%d row(s) copied from %s to %s" (R.cardinality rel)
             table path)
      with Sys_error m -> err "COPY %s: %s" table m)

(* ---------------- queries ---------------- *)

let build_query t q =
  try Qgm.Builder.build (Engine.Db.catalog t.sdb) q
  with Qgm.Builder.Sem_error m -> err "semantic error: %s" m

(* The single planning entry point: run_query, EXPLAIN REWRITE and EXPLAIN
   all route through here, so what EXPLAIN reports is exactly what
   execution does — including cache behaviour and budget degradation. *)
let plan_query ?budget t g =
  let trace = if t.strace then Some (Obs.Trace.create ()) else None in
  let r =
    Plancache.Planner.plan ?trace ?budget t.splanner
      ~cat:(Engine.Db.catalog t.sdb) ~epoch:(Store.epoch t.sstore)
      ~mvs:(Store.rewritable t.sstore) g
  in
  (match trace with
  | Some tr -> Obs.Trace.push t.straces (Qgm.Unparse.to_sql g) tr
  | None -> ());
  r

(* Admission control: a statement gets a budget only when its limits say
   so — the unlimited case stays on the zero-cost [None] path. *)
let budget_of_limits l =
  if Govern.Budget.is_unlimited l then None else Some (Govern.Budget.start l)

(* ---------------- deferred maintenance ---------------- *)

let m_maint_deferred = Obs.Metrics.counter "govern.maint.deferred"
let m_exec_degraded = Obs.Metrics.counter "govern.exec_degraded"

(* Drain the maintenance queue at a statement boundary: refresh every due
   stale summary table under the session's maintenance budget. Failures are
   classified and backed off (quarantine after max retries); a refresh cut
   short by the budget is deferred to the next boundary without penalty. *)
let drain_due t ~limits due =
  let budget = budget_of_limits limits in
  List.iter
    (fun name ->
      match Store.find t.sstore name with
      | None -> Maint.remove t.smaint name (* dropped meanwhile *)
      | Some e when e.Store.e_fresh ->
          Maint.remove t.smaint name (* refreshed manually meanwhile *)
      | Some _ -> (
          match
            Guard.Sandbox.protect ~stage:Guard.Error.Refresh ~mv:name
              (fun () -> Store.refresh_full ?budget t.sstore t.sdb name)
          with
          | exception Govern.Budget.Budget_exhausted _ ->
              Obs.Metrics.incr m_maint_deferred;
              Maint.defer t.smaint name
          | Ok (store', db') ->
              t.sstore <- store';
              t.sdb <- db';
              Maint.record_success t.smaint name
          | Error err ->
              Printf.eprintf
                "astrw maint: auto-refresh of %s failed (%s)\n%!" name
                (Guard.Error.to_string err);
              Maint.record_failure t.smaint name err;
              if Maint.is_quarantined t.smaint name then
                Printf.eprintf
                  "astrw maint: %s quarantined after repeated refresh \
                   failures; REFRESH or DROP it manually\n\
                   %!"
                  name))
    due

(* In shared mode the drain is a write: refreshed summaries must publish
   atomically with the store that considers them fresh. *)
let drain_maintenance t cfg =
  if cfg.auto_maint then begin
    Maint.tick t.smaint;
    match Maint.due t.smaint with
    | [] -> ()
    | due ->
        with_snapshot t ~write:true (fun () ->
            drain_due t ~limits:cfg.limits due)
  end

(* The execution-side guard counts: the planner and the maintenance queue
   tick the rest. Like every count, they live only in the registry. *)
let m_errors = Obs.Metrics.counter "plan.contained_errors"
let m_fallbacks = Obs.Metrics.counter "guard.fallbacks"
let m_verify_runs = Obs.Metrics.counter "guard.verify_runs"
let m_verify_mismatches = Obs.Metrics.counter "guard.verify_mismatches"
let m_static_skips = Obs.Metrics.counter "prove.verify_skips"

(* Deterministic sampling: verify whenever the accumulated rate crosses an
   integer boundary, so [Sampled 0.25] verifies exactly every 4th rewritten
   query — reproducible, no RNG state. *)
let should_verify t verify =
  match verify with
  | Off -> false
  | Always -> true
  | Static -> true (* the proved-plan skip is decided at the call site *)
  | Sampled p ->
      let p = Float.min 1.0 (Float.max 0.0 p) in
      t.sverify_acc <- t.sverify_acc +. p;
      if t.sverify_acc >= 1.0 then begin
        t.sverify_acc <- t.sverify_acc -. 1.0;
        true
      end
      else false

(* Fault.Corrupt support: perturb one value of the first row (simulates a
   compensation that derives an aggregate column incorrectly). *)
let corrupt_relation rel =
  let first = ref true in
  R.map_rows
    (fun row ->
      if !first && Array.length row > 0 then begin
        first := false;
        let row = Array.copy row in
        let j = Array.length row - 1 in
        row.(j) <- Guard.Fault.corrupt_value row.(j);
        row
      end
      else row)
    rel

(* The fallback contract: whatever happens inside the rewrite pipeline —
   planning already degrades inside Planner.plan; here a rewritten plan
   that fails to execute, or whose result fails verification, quarantines
   the summary tables it used and the base plan's answer is served. The
   only exceptions that can escape are the ones the base plan itself
   raises, exactly as a rewrite:false session would. *)
let run_query_unrewritten t g = (Engine.Exec.run t.sdb g, [])

let run_query_routed ?budget ~verify t g =
  let r = plan_query ?budget t g in
  (match r.Plancache.Planner.pr_degraded with
  | Some reason -> note_degraded t (Govern.Budget.reason_name reason)
  | None -> ());
  match r.Plancache.Planner.pr_steps with
  | [] -> run_query_unrewritten t g
  | steps -> (
      let quarantine_used () =
        Plancache.Planner.quarantine t.splanner ~fp:r.pr_fingerprint
          (List.filter_map
             (fun (s : Astmatch.Rewrite.step) ->
               Option.map
                 (fun (e : Store.entry) -> (s.used_mv, e.Store.e_version))
                 (Store.find t.sstore s.used_mv))
             steps)
      in
      match
        Guard.Sandbox.protect ~stage:Guard.Error.Execute (fun () ->
            Guard.Fault.hit Guard.Fault.Execute;
            Engine.Exec.run ?budget t.sdb r.pr_graph)
      with
      | exception Govern.Budget.Budget_exhausted reason ->
          (* the rewritten plan ran out of road mid-execution: containment
             path, minus the quarantine — the plan is fine, the budget was
             not. The base plan runs unbudgeted: correctness first. *)
          note_degraded t (Govern.Budget.reason_name reason);
          Obs.Metrics.incr m_exec_degraded;
          Obs.Metrics.incr m_fallbacks;
          run_query_unrewritten t g
      | Error e ->
          Printf.eprintf "astrw guard: %s; serving the base plan\n%!"
            (Guard.Error.to_string e);
          Obs.Metrics.incr m_errors;
          Obs.Metrics.incr m_fallbacks;
          quarantine_used ();
          run_query_unrewritten t g
      | Ok rel ->
          let rel =
            if Guard.Fault.fire Guard.Fault.Corrupt then corrupt_relation rel
            else rel
          in
          let static_skip =
            verify = Static
            && Prove.is_proved (Astmatch.Rewrite.steps_proof steps)
          in
          if static_skip then begin
            (* every applied step carries a static certificate: the rewrite
               is equivalent by construction, so the runtime re-execution
               would only confirm what is already proved *)
            Obs.Metrics.incr m_static_skips;
            (rel, steps)
          end
          else if not (should_verify t verify) then (rel, steps)
          else begin
            Obs.Metrics.incr m_verify_runs;
            let reference = Engine.Exec.run t.sdb g in
            if R.bag_equal_approx rel reference then (rel, steps)
            else begin
              Printf.eprintf
                "astrw guard: verification mismatch (rewrite via %s); \
                 quarantined, serving the base plan\n\
                 %!"
                (String.concat ", "
                   (List.map
                      (fun (s : Astmatch.Rewrite.step) -> s.used_mv)
                      steps));
              Obs.Metrics.incr m_verify_mismatches;
              Obs.Metrics.incr m_fallbacks;
              quarantine_used ();
              (reference, [])
            end
          end)

let run_query ?config t q =
  let cfg = Option.value config ~default:t.sconfig in
  drain_maintenance t cfg;
  with_snapshot t ~write:false (fun () ->
      try
        let g = build_query t q in
        if not cfg.rewrite then run_query_unrewritten t g
        else
          run_query_routed ?budget:(budget_of_limits cfg.limits)
            ~verify:cfg.verify t g
      with Division_by_zero -> err "division by zero in SELECT")

let explain_in_snapshot ?(verbose = false) t cfg q =
  let g = build_query t q in
  let cat = Engine.Db.catalog t.sdb in
  let buf = Buffer.create 256 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "original cost estimate: %.0f\n" (Astmatch.Cost.graph_cost cat g);
  (* plan under the session's limits, so what EXPLAIN reports — including
     budget degradation — is what an execution right now would do *)
  let r = plan_query ?budget:(budget_of_limits cfg.limits) t g in
  let fresh = Store.rewritable t.sstore in
  addf "cache: %s\n"
    (match r.Plancache.Planner.pr_cache with
    | Plancache.Planner.Hit -> "hit"
    | Template_hit -> "template hit"
    | Miss -> "miss");
  addf "candidates: %d attempted, %d filtered (of %d fresh)\n" r.pr_attempted
    r.pr_filtered (List.length fresh);
  addf "validated: %d graph(s) checked\n" r.pr_validated;
  if r.pr_quarantined > 0 then
    addf "quarantine: %d candidate(s) held\n" r.pr_quarantined;
  (match r.pr_degraded with
  | Some reason ->
      addf "degraded: %s (plan is best-so-far, not cached)\n"
        (Govern.Budget.reason_name reason)
  | None -> ());
  (match Maint.depth t.smaint with
  | 0 -> ()
  | n -> addf "maintenance: queued(%d)\n" n);
  List.iter
    (fun e -> addf "guard: contained %s\n" (Guard.Error.to_string e))
    r.pr_errors;
  (match r.pr_steps with
  | [] ->
      addf "no beneficial summary-table rewrite found\n";
      (* per-summary diagnostics; the filter verdicts come from the same
         candidate index the planner used, the rejection reasons from the
         same typed trace the matcher records *)
      let _, skipped =
        Plancache.Planner.classify t.splanner ~cat
          ~epoch:(Store.epoch t.sstore) ~mvs:fresh g
      in
      let was_skipped (mv : Astmatch.Rewrite.mv) =
        List.exists
          (fun (s : Astmatch.Rewrite.mv) -> s.mv_name = mv.mv_name)
          skipped
      in
      List.iter
        (fun (mv : Astmatch.Rewrite.mv) ->
          if was_skipped mv then
            addf "  %s: %s\n" mv.mv_name
              (Obs.Trace.describe Obs.Trace.Filtered_by_index)
          else
            let trace = Obs.Trace.create () in
            let sites =
              Astmatch.Navigator.find_matches ~trace cat ~query:g
                ~ast:mv.mv_graph
            in
            if sites <> [] then (
              (* a contained error is the real story, not cost *)
              match
                List.find_opt
                  (fun (e : Guard.Error.t) -> e.err_mv = Some mv.mv_name)
                  r.pr_errors
              with
              | Some e ->
                  let reason =
                    match e.Guard.Error.err_kind with
                    | Guard.Error.Ill_formed m -> Obs.Trace.Ir_invalid m
                    | _ -> Obs.Trace.Contained_error (Guard.Error.to_string e)
                  in
                  addf "  %s: rejected — %s [%s]\n" mv.mv_name
                    (Obs.Trace.describe reason)
                    (Obs.Trace.reason_code reason)
              | None ->
                  addf
                    "  %s: matches, but the rewrite is not estimated cheaper\n"
                    mv.mv_name)
            else begin
              addf "  %s: no match\n" mv.mv_name;
              if verbose then
                String.split_on_char '\n' (Obs.Trace.render trace)
                |> List.filter (fun l -> l <> "")
                |> List.iter (fun l -> addf "    %s\n" l)
              else
                Obs.Trace.rejections trace
                |> List.map (fun reason ->
                       Printf.sprintf "%s [%s]" (Obs.Trace.describe reason)
                         (Obs.Trace.reason_code reason))
                |> List.sort_uniq compare
                |> List.iter (fun l -> addf "    - %s\n" l)
            end)
        fresh
  | steps ->
      List.iter
        (fun (s : Astmatch.Rewrite.step) ->
          addf "rewrite: box %d answered from %s (%s match%s)\n" s.target
            s.used_mv
            (if s.exact then "exact" else "compensated")
            (if Prove.is_proved s.proved then ", proved" else ""))
        steps;
      addf "proved: %s\n"
        (match Astmatch.Rewrite.steps_proof steps with
        | Prove.Proved -> "yes — static certificate on every step"
        | Prove.Unknown why -> "no — " ^ why);
      addf "rewritten cost estimate: %.0f\n"
        (Astmatch.Cost.graph_cost cat r.pr_graph);
      addf "rewritten SQL: %s\n" (Qgm.Unparse.to_sql r.pr_graph);
      if verbose then begin
        (* re-run routing (uncached) with a full trace: the span tree shows
           every candidate's navigate/match/cost verdicts, not just the
           winning steps *)
        let tr = Obs.Trace.create () in
        ignore (Astmatch.Rewrite.best ~cat ~trace:tr g fresh);
        addf "trace:\n";
        String.split_on_char '\n' (Obs.Trace.render tr)
        |> List.filter (fun l -> l <> "")
        |> List.iter (fun l -> addf "  %s\n" l)
      end);
  Buffer.contents buf

let explain ?verbose t q =
  with_snapshot t ~write:false (fun () ->
      explain_in_snapshot ?verbose t t.sconfig q)

(* ---------------- statements ---------------- *)

(* Definition-time lint of one stored summary against the rest of the
   store (overlap detection) and its maintainability verdict. *)
let lint_entry t (e : Store.entry) =
  let existing =
    List.filter_map
      (fun (o : Store.entry) ->
        if o.Store.e_name = e.Store.e_name then None
        else Some (o.Store.e_name, o.Store.e_graph))
      (Store.entries t.sstore)
  in
  Lint.Advisor.lint ~existing
    ~incremental:(e.Store.e_incr <> None)
    (Engine.Db.catalog t.sdb) e.Store.e_graph

let lint_summaries t =
  List.map
    (fun (e : Store.entry) -> (e.Store.e_name, lint_entry t e))
    (Store.entries t.sstore)

let stmt_label = function
  | A.Create_table _ -> "CREATE TABLE"
  | A.Insert _ -> "INSERT"
  | A.Delete _ -> "DELETE"
  | A.Copy_from _ -> "COPY FROM"
  | A.Copy_to _ -> "COPY TO"
  | A.Create_summary _ -> "CREATE SUMMARY TABLE"
  | A.Drop_summary _ -> "DROP SUMMARY TABLE"
  | A.Refresh_summary _ -> "REFRESH SUMMARY TABLE"
  | A.Select _ -> "SELECT"
  | A.Explain_rewrite _ -> "EXPLAIN REWRITE"
  | A.Explain_plan _ -> "EXPLAIN"

let exec_stmt_dispatch ?derived t cfg stmt =
  match stmt with
  | A.Create_table { ct_name; ct_cols; ct_constraints } ->
      do_create_table t ct_name ct_cols ct_constraints
  | A.Insert { ins_table; ins_cols; ins_rows } ->
      do_insert t ins_table ins_cols ins_rows
  | A.Delete { del_table; del_where } -> do_delete t del_table del_where
  | A.Copy_from { cf_table; cf_path; cf_header } ->
      do_copy_from t cf_table cf_path cf_header
  | A.Copy_to { ct2_table; ct2_path } -> do_copy_to t ct2_table ct2_path
  | A.Create_summary { cs_name; cs_query } -> (
      let sql = Sqlsyn.Pretty.query_to_string cs_query in
      try
        let store', db' = Store.define ?derived t.sstore t.sdb ~name:cs_name ~sql in
        t.sstore <- store';
        t.sdb <- db';
        let e = Option.get (Store.find store' cs_name) in
        let warnings =
          List.map
            (fun d -> "\n  lint " ^ Lint.Advisor.render d)
            (lint_entry t e)
        in
        Msg
          (Printf.sprintf "summary table %s created (%d rows%s)%s" cs_name
             (Engine.Db.cardinality db' cs_name)
             (match e.Store.e_incr with
             | Some _ -> ", incrementally maintainable"
             | None -> "")
             (String.concat "" warnings))
      with Store.Mv_error m -> err "%s" m)
  | A.Drop_summary name -> (
      try
        let declared = Catalog.declared_table (Engine.Db.catalog t.sdb) name in
        let store', db' = Store.drop t.sstore t.sdb declared in
        t.sstore <- store';
        t.sdb <- db';
        Maint.remove t.smaint declared;
        Msg (Printf.sprintf "summary table %s dropped" name)
      with Store.Mv_error m -> err "%s" m)
  | A.Refresh_summary name -> (
      try
        let declared = Catalog.declared_table (Engine.Db.catalog t.sdb) name in
        let store', db' = Store.refresh_full t.sstore t.sdb declared in
        t.sstore <- store';
        t.sdb <- db';
        (* a manual refresh clears any pending or quarantined auto-task *)
        Maint.remove t.smaint declared;
        Msg (Printf.sprintf "summary table %s refreshed" name)
      with Store.Mv_error m -> err "%s" m)
  | A.Select q ->
      let rel, _ = run_query ~config:cfg t q in
      Table rel
  | A.Explain_rewrite (q, verbose) ->
      Plan (explain_in_snapshot ~verbose t cfg q)
  | A.Explain_plan q ->
      let g = build_query t q in
      let cat = Engine.Db.catalog t.sdb in
      (* show the plan that would actually run, after routing *)
      let g =
        if not cfg.rewrite then g
        else (plan_query t g).Plancache.Planner.pr_graph
      in
      Plan (Astmatch.Cost.explain cat g)

(* Statement classification for the shared-state discipline: mutating
   statements serialize through the writer lock and publish atomically;
   everything else runs against a lock-free snapshot. *)
let stmt_writes = function
  | A.Create_table _ | A.Insert _ | A.Delete _ | A.Copy_from _
  | A.Create_summary _ | A.Drop_summary _ | A.Refresh_summary _ ->
      true
  | A.Copy_to _ | A.Select _ | A.Explain_rewrite _ | A.Explain_plan _ ->
      false

(* The durability record for a just-executed write statement. COPY FROM
   logs the rows it loaded (stashed by do_copy_from); everything else
   round-trips through the pretty-printer and re-executes at replay. *)
let commit_of t stmt =
  match stmt with
  | A.Copy_from { cf_table; _ } ->
      Commit_rows { cr_table = cf_table; cr_rows = t.scopy_rows }
  | _ -> Commit_sql (Sqlsyn.Pretty.stmt_to_string stmt)

(* Division_by_zero is a raw OCaml exception wherever the engine evaluates
   expressions (constant folding, INSERT values, predicates, outputs);
   surface it as a proper session error with statement context. *)
let exec_stmt_with ?derived ?config t stmt =
  let cfg = Option.value config ~default:t.sconfig in
  drain_maintenance t cfg;
  let write = stmt_writes stmt in
  with_snapshot t ~write (fun () ->
      t.scopy_rows <- [];
      let out =
        try exec_stmt_dispatch ?derived t cfg stmt
        with Division_by_zero -> err "division by zero in %s" (stmt_label stmt)
      in
      (* append-before-publish: a hook failure aborts the whole statement
         (nothing publishes), so no write is ever visible without its log
         record. Read-only statements never reach the hook. *)
      (match t.son_commit with
      | Some hook when write -> hook (commit_of t stmt)
      | _ -> ());
      t.scopy_rows <- [];
      out)

let exec_stmt ?config t stmt = exec_stmt_with ?config t stmt

(* WAL replay of a [Commit_rows] record: the integrity checks and the
   acknowledged outcome already happened in the crashed process — just fold
   the rows through summary maintenance and append them. Runs before the
   durability hook is installed, so nothing is re-logged. *)
let replay_rows t ~table ~rows =
  with_snapshot t ~write:true (fun () ->
      let cat = Engine.Db.catalog t.sdb in
      match Catalog.find_table cat table with
      | Some tbl -> append_rows t tbl rows
      | None -> err "unknown table %s" table)

(* A run of CREATE SUMMARY statements derived as one set, against the
   snapshot in force when the run starts; each statement still installs
   its own result, under its own lock, log record and checks. *)
let derive_run t stmts =
  let db, store =
    match t.sshared with
    | Some sh ->
        let snap = Shared.snapshot sh in
        (snap.Shared.sn_db, snap.Shared.sn_store)
    | None -> (t.sdb, t.sstore)
  in
  Store.derive_set store db
    (List.filter_map
       (function
         | A.Create_summary { cs_name; cs_query } ->
             Some (cs_name, Sqlsyn.Pretty.query_to_string cs_query)
         | _ -> None)
       stmts)

let exec_sql ?config t sql =
  (* statement-at-a-time: statements before a syntax error have executed
     and their effects persist; the error then surfaces *)
  let cursor =
    try Sqlsyn.Parser.script_start sql
    with Sqlsyn.Lexer.Lex_error (m, p) -> err "lexical error at offset %d: %s" p m
  in
  (* parsed one statement ahead of execution, so a syntax error waits
     until the statements before it have run *)
  let next () =
    try Ok (Sqlsyn.Parser.script_next cursor)
    with Sqlsyn.Parser.Parse_error (m, p) -> Error (m, p)
  in
  let rec run_of acc =
    match next () with
    | Ok (Some (A.Create_summary _ as stmt)) -> run_of (stmt :: acc)
    | after -> (List.rev acc, after)
  in
  let rec loop acc = function
    | Error (m, p) -> err "parse error at offset %d: %s" p m
    | Ok None -> List.rev acc
    | Ok (Some (A.Create_summary _ as stmt)) ->
        let run, after = run_of [ stmt ] in
        let derived = if List.length run >= 2 then Some (derive_run t run) else None in
        loop
          (List.fold_left
             (fun acc stmt -> exec_stmt_with ?derived ?config t stmt :: acc)
             acc run)
          after
    | Ok (Some stmt) ->
        let out = exec_stmt ?config t stmt in
        loop (out :: acc) (next ())
  in
  loop [] (next ())
