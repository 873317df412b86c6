(* Benchmark harness: regenerates every figure/table of the paper.

   For each figure: verify the match decision, verify result equivalence of
   the rewritten query, and time original vs. rewritten execution — one
   Bechamel Test.make per figure (plus the PERF rows of DESIGN.md). The
   ablation section re-runs the match decisions with individual design
   features disabled.

     dune exec bench/main.exe                (scale 1, ~60k fact rows)
     ASTRW_SCALE=4 dune exec bench/main.exe  (bigger) *)

module R = Data.Relation
module W = Workload.Star_schema

let scale =
  match Sys.getenv_opt "ASTRW_SCALE" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 1)
  | None -> 1

(* ASTRW_SMOKE=1: CI gate. Skips the slow sections (multi-scale PERF1,
   bechamel) but runs every figure verification, and exits non-zero when
   any expected rewrite is missing or any result comparison fails. *)
let smoke =
  match Sys.getenv_opt "ASTRW_SMOKE" with
  | Some ("" | "0") | None -> false
  | Some _ -> true

(* --gate FILE: after the run, diff this run's workload timings against a
   committed baseline and exit non-zero on regression (the CI perf gate).
   --write-baseline FILE: record the current run as the new baseline. *)
let gate_path, baseline_out =
  let gate = ref None and out = ref None in
  let rec parse = function
    | "--gate" :: p :: rest ->
        gate := Some p;
        parse rest
    | "--write-baseline" :: p :: rest ->
        out := Some p;
        parse rest
    | a :: _ ->
        Printf.eprintf
          "unknown argument %s (expected --gate FILE / --write-baseline FILE)\n"
          a;
        exit 2
    | [] -> ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  (!gate, !out)

let build cat sql = Qgm.Builder.build cat (Sqlsyn.Parser.parse_query sql)

type prepared = {
  p_case : Workload.Paper_queries.case;
  p_query : Qgm.Graph.t;
  p_rewritten : Qgm.Graph.t option;  (* None: no match (expected for some) *)
  p_db : Engine.Db.t;
}

let prepare db (c : Workload.Paper_queries.case) =
  let cat = Engine.Db.catalog db in
  let qg = build cat c.query in
  let ag = build cat c.ast in
  let mv_rel = Engine.Exec.run db ag in
  let cols = Qgm.Typing.infer_outputs cat ag in
  let cat2 =
    if Catalog.mem_table cat c.ast_name then cat
    else
      Catalog.add_table cat
        {
          Catalog.tbl_name = c.ast_name;
          tbl_cols =
            List.map
              (fun (n, ty) ->
                { Catalog.col_name = n; col_ty = ty; nullable = true })
              cols;
          primary_key = [];
          unique_keys = [];
          foreign_keys = [];
        }
  in
  let db = Engine.Db.put (Engine.Db.with_catalog db cat2) c.ast_name mv_rel in
  let cat2 = Engine.Db.catalog db in
  let rewritten =
    match Astmatch.Navigator.find_matches cat2 ~query:qg ~ast:ag with
    | [] -> None
    | sites ->
        (* replace the highest matched box (fewest remaining operators) *)
        let { Astmatch.Navigator.site_box; site_result; _ } =
          List.nth sites (List.length sites - 1)
        in
        Some
          (Astmatch.Rewrite.apply ~query:qg ~target:site_box
             ~result:site_result ~mv_table:c.ast_name
             ~mv_cols:(Array.to_list (R.columns mv_rel)))
  in
  (db, { p_case = c; p_query = qg; p_rewritten = rewritten; p_db = db })

let time_ms f =
  (* median of five *)
  let runs =
    List.init 5 (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (Sys.opaque_identity (f ()));
        (Unix.gettimeofday () -. t0) *. 1000.)
  in
  List.nth (List.sort compare runs) 2

let time_once f =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (f ()));
  (Unix.gettimeofday () -. t0) *. 1000.

(* Nearest-rank percentile of an ascending latency list; [p = 1.0] is the
   maximum. *)
let pct sorted p =
  let n = List.length sorted in
  List.nth sorted (min (n - 1) (int_of_float (p *. float_of_int n)))

(* ---------------- machine-readable results ---------------- *)
(* JSON rendering is shared with the metrics exporter (Obs.Json), so
   BENCH_results.json and a live \metrics dump follow one schema. *)

module Json = Obs.Json

let figure_rows : Json.t list ref = ref []
let workload_rows : Json.t list ref = ref []
let planning_obj : Json.t ref = ref (Json.Obj [])
let governed_obj : Json.t ref = ref (Json.Obj [])
let proving_obj : Json.t ref = ref (Json.Obj [])

let () =
  Printf.printf "=== astrw bench: scale %d ===\n%!" scale;
  let params = W.scaled scale in
  let tables = W.generate params in
  let db0 = Engine.Db.of_tables (W.catalog ()) tables in
  Printf.printf "Trans rows: %d\n\n%!"
    (R.cardinality (List.assoc "Trans" tables));

  (* ---------------- per-figure verification + timing ---------------- *)
  let _, prepared =
    List.fold_left
      (fun (db, acc) c ->
        let db, p = prepare db c in
        (db, acc @ [ p ]))
      (db0, []) Workload.Paper_queries.cases
  in
  Printf.printf "%-10s %-14s %-9s %-7s %10s %10s %9s\n" "figure" "case"
    "rewrite" "correct" "orig(ms)" "mv(ms)" "speedup";
  let fails = ref 0 in
  List.iter
    (fun p ->
      let c = p.p_case in
      match p.p_rewritten with
      | None ->
          if c.Workload.Paper_queries.expect_rewrite then incr fails;
          figure_rows :=
            !figure_rows
            @ [
                Json.Obj
                  [
                    ("fig", Json.Str c.fig);
                    ("case", Json.Str c.name);
                    ("rewritten", Json.Bool false);
                    ("expected", Json.Bool c.expect_rewrite);
                  ];
              ];
          Printf.printf "%-10s %-14s %-9s %-7s %10s %10s %9s\n" c.fig c.name
            (if c.expect_rewrite then "MISSING!" else "no (ok)")
            "-" "-" "-" "-"
      | Some g' ->
          if not c.Workload.Paper_queries.expect_rewrite then incr fails;
          let orig = Engine.Exec.run p.p_db p.p_query in
          let via = Engine.Exec.run p.p_db g' in
          let correct = R.bag_equal_approx orig via in
          if not correct then incr fails;
          let t_orig = time_ms (fun () -> Engine.Exec.run p.p_db p.p_query) in
          let t_mv = time_ms (fun () -> Engine.Exec.run p.p_db g') in
          figure_rows :=
            !figure_rows
            @ [
                Json.Obj
                  [
                    ("fig", Json.Str c.fig);
                    ("case", Json.Str c.name);
                    ("rewritten", Json.Bool true);
                    ("expected", Json.Bool c.expect_rewrite);
                    ("correct", Json.Bool correct);
                    ("original_ms", Json.Num t_orig);
                    ("rewritten_ms", Json.Num t_mv);
                  ];
              ];
          Printf.printf "%-10s %-14s %-9s %-7s %10.2f %10.2f %8.1fx\n" c.fig
            c.name
            (if c.expect_rewrite then "yes" else "UNEXPECTED")
            (if correct then "yes" else "NO")
            t_orig t_mv (t_orig /. t_mv))
    prepared;
  Printf.printf "\nverification failures: %d\n\n%!" !fails;

  (* ---------------- PERF1: the 100x size claim (section 1.1) -------- *)
  Printf.printf "=== PERF1: summary-table size ratio (paper: about 100x) ===\n";
  Printf.printf "%-6s %12s %12s %8s\n" "scale" "Trans" "AST1" "ratio";
  List.iter
    (fun s ->
      let tables = W.generate (W.scaled s) in
      let db = Engine.Db.of_tables (W.catalog ()) tables in
      let ag = build (Engine.Db.catalog db) Workload.Paper_queries.ast1 in
      let mv = Engine.Exec.run db ag in
      let nt = R.cardinality (List.assoc "Trans" tables) in
      let na = R.cardinality mv in
      Printf.printf "%-6d %12d %12d %7.1fx\n" s nt na
        (float_of_int nt /. float_of_int na))
    (if smoke then [ 1 ] else [ 1; 2; 4 ]);
  print_newline ();

  (* ---------------- PERF3: workload-level speedup (section 8) -------- *)
  Printf.printf
    "=== PERF3: decision-support workload, 3 summary tables (section 8) ===\n";
  let sn =
    Mvstore.Session.of_tables (W.catalog ()) tables
  in
  List.iter
    (fun (name, sql) ->
      ignore
        (Mvstore.Session.exec_sql sn
           (Printf.sprintf "CREATE SUMMARY TABLE %s AS %s" name sql)))
    Workload.Decision_support.summary_tables;
  Printf.printf "%-24s %10s %10s %10s %9s  %s\n" "query" "base(ms)"
    "plan(ms)" "exec(ms)" "speedup" "routed via";
  let tot_base = ref 0.
  and tot_plan = ref 0.
  and tot_exec = ref 0. in
  let ws_db = Mvstore.Session.db sn in
  let ws_cat = Engine.Db.catalog ws_db in
  let ws_store = Mvstore.Session.store sn in
  let ws_planner = Mvstore.Session.planner sn in
  List.iter
    (fun (q : Workload.Decision_support.query) ->
      let g = build ws_cat q.dq_sql in
      let t_base = time_ms (fun () -> Engine.Exec.run ws_db g) in
      (* planning and execution measured separately: plan_ms is the live
         (warm-cache) routing cost, exec_ms the rewritten plan alone *)
      let plan () =
        Plancache.Planner.plan ws_planner ~cat:ws_cat
          ~epoch:(Mvstore.Store.epoch ws_store)
          ~mvs:(Mvstore.Store.rewritable ws_store)
          g
      in
      let report = plan () in
      let t_plan = time_ms (fun () -> plan ()) in
      let t_exec =
        time_ms (fun () ->
            Engine.Exec.run ws_db report.Plancache.Planner.pr_graph)
      in
      let routed =
        match report.Plancache.Planner.pr_steps with
        | s :: _ -> s.Astmatch.Rewrite.used_mv
        | [] -> "(base tables)"
      in
      tot_base := !tot_base +. t_base;
      tot_plan := !tot_plan +. t_plan;
      tot_exec := !tot_exec +. t_exec;
      workload_rows :=
        !workload_rows
        @ [
            Json.Obj
              [
                ("query", Json.Str q.dq_name);
                ("base_ms", Json.Num t_base);
                ("plan_ms", Json.Num t_plan);
                ("exec_ms", Json.Num t_exec);
                ("rewritten_ms", Json.Num (t_plan +. t_exec));
                ("routed_via", Json.Str routed);
              ];
          ];
      Printf.printf "%-24s %10.1f %10.3f %10.1f %8.1fx  %s\n" q.dq_name
        t_base t_plan t_exec
        (t_base /. (t_plan +. t_exec))
        routed)
    Workload.Decision_support.queries;
  Printf.printf "%-24s %10.1f %10.3f %10.1f %8.1fx\n" "TOTAL" !tot_base
    !tot_plan !tot_exec
    (!tot_base /. (!tot_plan +. !tot_exec));
  print_newline ();

  (* ---------------- ablations (DESIGN.md section 5) ------------------ *)
  Printf.printf
    "=== ablations: figure rewrites surviving with a feature off ===\n";
  let positive =
    List.filter
      (fun (c : Workload.Paper_queries.case) -> c.expect_rewrite)
      Workload.Paper_queries.cases
  in
  let decide () =
    (* cheap decision run on a small database *)
    let tables =
      W.generate { W.default_params with n_custs = 2; trans_per_acct_year = 10 }
    in
    let db = Engine.Db.of_tables (W.catalog ()) tables in
    List.map
      (fun (c : Workload.Paper_queries.case) ->
        let cat = Engine.Db.catalog db in
        let qg = build cat c.query in
        let ag = build cat c.ast in
        (c.name, Astmatch.Navigator.find_matches cat ~query:qg ~ast:ag <> []))
      positive
  in
  let baseline = decide () in
  let ablations =
    [
      ("equivalence classes", Astmatch.Config.equivalence_classes);
      ("predicate subsumption", Astmatch.Config.predicate_subsumption);
      ("greedy derivation", Astmatch.Config.greedy_derivation);
      ("smallest cuboid", Astmatch.Config.smallest_cuboid);
    ]
  in
  Printf.printf "%-24s %9s   lost rewrites\n" "feature disabled" "matches";
  Printf.printf "%-24s %6d/%d\n" "(none: baseline)"
    (List.length (List.filter snd baseline))
    (List.length baseline);
  List.iter
    (fun (label, switch) ->
      let rows = Astmatch.Config.without switch decide in
      let lost =
        List.filter_map
          (fun ((name, ok), (_, ok0)) ->
            if ok0 && not ok then Some name else None)
          (List.combine rows baseline)
      in
      Printf.printf "%-24s %6d/%d   %s\n" label
        (List.length (List.filter snd rows))
        (List.length rows)
        (String.concat ", " lost))
    ablations;
  print_newline ();

  (* ---------------- PERF4: planning path, N MVs, repeated queries ---- *)
  (* The plan-cache workload: a store of 32 summary tables and a mix of
     repeated analyst queries. Compares the uncached path (Rewrite.best
     over every fresh MV, the pre-plancache behaviour) against the planner
     cold (miss: filter + match + memoize) and warm (hit: fingerprint +
     lookup, zero match-function calls). *)
  Printf.printf "=== PERF4: rewrite-planning path (plan cache + candidate filter) ===\n";
  let tiny =
    W.generate { W.default_params with n_custs = 2; trans_per_acct_year = 5 }
  in
  let psn = Mvstore.Session.of_tables (W.catalog ()) tiny in
  let dims =
    [
      ("flid", "flid");
      ("faid", "faid");
      ("fpgid", "fpgid");
      ("year(date) AS year", "year(date)");
      ("month(date) AS month", "month(date)");
    ]
  in
  let subsets =
    let rec go = function
      | [] -> [ [] ]
      | x :: rest ->
          let r = go rest in
          r @ List.map (fun s -> x :: s) r
    in
    List.filter (fun s -> s <> []) (go dims)
  in
  List.iteri
    (fun i keys ->
      let sel = String.concat ", " (List.map fst keys) in
      let grp = String.concat ", " (List.map snd keys) in
      ignore
        (Mvstore.Session.exec_sql psn
           (Printf.sprintf
              "CREATE SUMMARY TABLE p_mv%d AS SELECT %s, COUNT(*) AS c, \
               SUM(qty) AS sq FROM Trans GROUP BY %s"
              i sel grp)))
    subsets;
  ignore
    (Mvstore.Session.exec_sql psn
       "CREATE SUMMARY TABLE p_mv_recent AS SELECT flid, COUNT(*) AS c, \
        SUM(qty) AS sq FROM Trans WHERE year(date) >= 1995 GROUP BY flid");
  let pstore = Mvstore.Session.store psn in
  let pdb = Mvstore.Session.db psn in
  let pcat = Engine.Db.catalog pdb in
  let n_mvs = List.length (Mvstore.Store.rewritable pstore) in
  let mix =
    [
      "SELECT flid, SUM(qty) AS s FROM Trans GROUP BY flid";
      "SELECT faid, COUNT(*) AS c FROM Trans GROUP BY faid";
      "SELECT flid, fpgid, SUM(qty) AS s FROM Trans GROUP BY flid, fpgid";
      "SELECT year(date) AS year, SUM(qty) AS s FROM Trans GROUP BY year(date)";
      "SELECT flid, year(date) AS year, COUNT(*) AS c FROM Trans \
       GROUP BY flid, year(date)";
      "SELECT fpgid, month(date) AS month, SUM(qty) AS s FROM Trans \
       GROUP BY fpgid, month(date)";
      "SELECT lid, COUNT(*) AS c FROM Loc GROUP BY lid";
      "SELECT faid, flid, fpgid, SUM(qty) AS s FROM Trans \
       GROUP BY faid, flid, fpgid";
    ]
  in
  let graphs = List.map (fun sql -> build pcat sql) mix in
  let rounds = 20 in
  let t_uncached =
    time_once (fun () ->
        for _ = 1 to rounds do
          List.iter
            (fun g ->
              ignore
                (Astmatch.Rewrite.best ~cat:pcat g
                   (Mvstore.Store.rewritable pstore)))
            graphs
        done)
  in
  let planner = Mvstore.Session.planner psn in
  let plan_pass () =
    List.iter
      (fun g ->
        ignore
          (Plancache.Planner.plan planner ~cat:pcat
             ~epoch:(Mvstore.Store.epoch pstore)
             ~mvs:(Mvstore.Store.rewritable pstore) g))
      graphs
  in
  let t_cold = time_once plan_pass in
  Astmatch.Patterns.reset_match_count ();
  let t_warm = time_once (fun () -> for _ = 1 to rounds do plan_pass () done) in
  let warm_matches = Astmatch.Patterns.match_count () in
  let per_q_uncached = t_uncached /. float_of_int (rounds * List.length mix) in
  let per_q_warm = t_warm /. float_of_int (rounds * List.length mix) in
  let speedup = per_q_uncached /. per_q_warm in
  let st = Mvstore.Session.stats psn in
  Printf.printf "MVs: %d, query mix: %d, rounds: %d\n" n_mvs (List.length mix)
    rounds;
  Printf.printf "uncached planning: %8.3f ms/query\n" per_q_uncached;
  Printf.printf "cold planning:     %8.3f ms/query (miss: filter + match)\n"
    (t_cold /. float_of_int (List.length mix));
  Printf.printf "warm planning:     %8.3f ms/query (hit)\n" per_q_warm;
  Printf.printf "warm speedup:      %8.1fx  (match_boxes calls while warm: %d)\n"
    speedup warm_matches;
  Printf.printf "%s\n\n%!" (Plancache.Stats.to_string st);
  planning_obj :=
    Json.Obj
      [
        ("mvs", Json.Int n_mvs);
        ("distinct_queries", Json.Int (List.length mix));
        ("rounds", Json.Int rounds);
        ("uncached_ms_per_query", Json.Num per_q_uncached);
        ("cold_ms_per_query", Json.Num (t_cold /. float_of_int (List.length mix)));
        ("warm_ms_per_query", Json.Num per_q_warm);
        ("warm_speedup", Json.Num speedup);
        ("warm_match_boxes_calls", Json.Int warm_matches);
        ("cache_hits", Json.Int st.Plancache.Stats.hits);
        ("cache_misses", Json.Int st.Plancache.Stats.misses);
        ("candidates_attempted", Json.Int st.Plancache.Stats.attempted);
        ("candidates_filtered", Json.Int st.Plancache.Stats.filtered);
      ];

  (* ---------------- PERF6: governed planning at 64 summary tables ---- *)
  (* Tail-latency control: cold rewrite planning over a store of 64
     summary tables, with and without a 10 ms deadline. Each sample plans
     on a fresh planner (no cache, index rebuilt) so the distribution is
     the worst-case path; the deadline pass reports how many plans were
     truncated. The smoke gate requires ZERO degradation under the default
     infinite budget — a governed build must not throttle ungoverned
     planning. *)
  Printf.printf
    "=== PERF6: planning-latency distribution under a deadline (64 MVs) ===\n";
  let gdims = dims @ [ ("qty", "qty") ] in
  let gsubsets =
    let rec go = function
      | [] -> [ [] ]
      | x :: rest ->
          let r = go rest in
          r @ List.map (fun s -> x :: s) r
    in
    List.filter (fun s -> s <> []) (go gdims)
  in
  let gsn = Mvstore.Session.of_tables (W.catalog ()) tiny in
  List.iteri
    (fun i keys ->
      let sel = String.concat ", " (List.map fst keys) in
      let grp = String.concat ", " (List.map snd keys) in
      ignore
        (Mvstore.Session.exec_sql gsn
           (Printf.sprintf
              "CREATE SUMMARY TABLE g_mv%d AS SELECT %s, COUNT(*) AS c, \
               SUM(qty) AS sq FROM Trans GROUP BY %s"
              i sel grp)))
    gsubsets;
  ignore
    (Mvstore.Session.exec_sql gsn
       "CREATE SUMMARY TABLE g_mv_recent AS SELECT flid, COUNT(*) AS c, \
        SUM(qty) AS sq FROM Trans WHERE year(date) >= 1995 GROUP BY flid");
  let gstore = Mvstore.Session.store gsn in
  let gcat = Engine.Db.catalog (Mvstore.Session.db gsn) in
  let gmvs = Mvstore.Store.rewritable gstore in
  let n64 = List.length gmvs in
  let ggraphs = List.map (fun sql -> build gcat sql) mix in
  let grounds = if smoke then 4 else 25 in
  let run_pass deadline =
    let lats = ref [] and degraded = ref 0 in
    for _ = 1 to grounds do
      List.iter
        (fun g ->
          (* fresh planner and budget per sample: cold path, full account *)
          let planner = Plancache.Planner.create () in
          let budget =
            Option.map
              (fun ms ->
                Govern.Budget.start (Govern.Budget.limits ~deadline_ms:ms ()))
              deadline
          in
          let t0 = Unix.gettimeofday () in
          let r =
            Plancache.Planner.plan ?budget planner ~cat:gcat
              ~epoch:(Mvstore.Store.epoch gstore) ~mvs:gmvs g
          in
          lats := ((Unix.gettimeofday () -. t0) *. 1000.) :: !lats;
          if r.Plancache.Planner.pr_degraded <> None then incr degraded)
        ggraphs
    done;
    (List.sort compare !lats, !degraded)
  in
  let lats_inf, degr_inf = run_pass None in
  let lats_dl, degr_dl = run_pass (Some 10.0) in
  let row label lats degraded =
    Printf.printf
      "%-18s p50 %8.3f ms   p95 %8.3f ms   p99 %8.3f ms   max %8.3f ms   \
       degraded %d/%d\n"
      label (pct lats 0.50) (pct lats 0.95) (pct lats 0.99) (pct lats 1.0)
      degraded (List.length lats);
    Json.Obj
      [
        ("p50_ms", Json.Num (pct lats 0.50));
        ("p95_ms", Json.Num (pct lats 0.95));
        ("p99_ms", Json.Num (pct lats 0.99));
        ("max_ms", Json.Num (pct lats 1.0));
        ("degraded", Json.Int degraded);
        ("samples", Json.Int (List.length lats));
      ]
  in
  Printf.printf "MVs: %d, query mix: %d, samples per pass: %d\n" n64
    (List.length mix)
    (grounds * List.length mix);
  let inf_row = row "unlimited" lats_inf degr_inf in
  let dl_row = row "deadline 10ms" lats_dl degr_dl in
  if degr_inf > 0 then begin
    incr fails;
    Printf.printf
      "GOVERNANCE FAILURE: %d plan(s) degraded under the infinite budget\n"
      degr_inf
  end;
  governed_obj :=
    Json.Obj
      [
        ("mvs", Json.Int n64);
        ("unlimited", inf_row);
        ("deadline_10ms", dl_row);
      ];
  print_newline ();

  (* ---------------- PERF5: runtime-verification overhead ------------- *)
  (* Cost of Session verify modes: every verified query executes the base
     plan too, so Always pays roughly base+mv per rewritten query and
     Sampled p a p-weighted blend. Decision-support mix on small data (the
     overhead ratio, not absolute time, is the point). *)
  Printf.printf "=== PERF5: runtime result verification overhead ===\n";
  let verify_modes =
    [
      ("off", Mvstore.Session.Off);
      ("sample:0.25", Mvstore.Session.Sampled 0.25);
      ("always", Mvstore.Session.Always);
      ("static", Mvstore.Session.Static);
    ]
  in
  let vrounds = 10 in
  let verify_rows =
    List.map
      (fun (label, mode) ->
        let vsn = Mvstore.Session.of_tables ~verify:mode (W.catalog ()) tiny in
        List.iter
          (fun (name, sql) ->
            ignore
              (Mvstore.Session.exec_sql vsn
                 (Printf.sprintf "CREATE SUMMARY TABLE %s AS %s" name sql)))
          Workload.Decision_support.summary_tables;
        let parsed =
          List.map
            (fun (q : Workload.Decision_support.query) ->
              Sqlsyn.Parser.parse_query q.dq_sql)
            Workload.Decision_support.queries
        in
        let t =
          time_once (fun () ->
              for _ = 1 to vrounds do
                List.iter
                  (fun q -> ignore (Mvstore.Session.run_query vsn q))
                  parsed
              done)
        in
        let st = Mvstore.Session.stats vsn in
        let per_q = t /. float_of_int (vrounds * List.length parsed) in
        Printf.printf
          "verify %-12s %8.3f ms/query  (%d verification run(s), %d \
           mismatch(es), %d static skip(s))\n"
          label per_q st.Plancache.Stats.verify_runs
          st.Plancache.Stats.verify_mismatches
          st.Plancache.Stats.verify_static_skips;
        ( label,
          Json.Obj
            [
              ("ms_per_query", Json.Num per_q);
              ("verify_runs", Json.Int st.Plancache.Stats.verify_runs);
              ("verify_mismatches", Json.Int st.Plancache.Stats.verify_mismatches);
              ("verify_static_skips", Json.Int st.Plancache.Stats.verify_static_skips);
            ] ))
      verify_modes
  in
  (* The point of verify:Static — whole query classes with certified
     plans stop paying the double execution. *)
  (let stat label field =
     match List.assoc label verify_rows with
     | Json.Obj fields -> (
         match List.assoc field fields with Json.Int n -> n | _ -> 0)
     | _ -> 0
   in
   let skips = stat "static" "verify_static_skips"
   and runs_static = stat "static" "verify_runs"
   and runs_always = stat "always" "verify_runs" in
   if skips = 0 || runs_static >= runs_always then begin
     incr fails;
     Printf.printf
       "PERF5 FAILURE: verify:static skipped %d run(s) (static ran %d, \
        always ran %d) — no query class has a certified plan\n"
       skips runs_static runs_always
   end);
  print_newline ();

  (* ---------------- PERF11: partition certificates ------------------- *)
  (* The prover as a planner primitive: certify shard pairs as
     disjoint-and-covering (the enabling check for UNION ALL multi-view
     rewrites). Pairs over the PERF4 catalog mix true partitions — range
     splits on a NOT NULL column, discrete <=c-1 / >=c adjacency,
     computed year() splits — with near-misses (gaps, overlaps). Two
     gates: every true partition must be Proved (and only those), and
     every Proved verdict is re-checked against the data — the shard
     union must bag-equal the unrestricted scan. A certificate
     contradicted by bag equality is a soundness bug, never noise. *)
  Printf.printf
    "=== PERF11: partition certificates (proof rate + prover latency) ===\n";
  let shard_specs n =
    List.init n (fun i ->
        let c = 2 + (i mod 4) in
        (* qty is 1..5 NOT NULL; cuts 2..5 keep both shards nonempty *)
        match i mod 5 with
        | 0 ->
            ( true,
              Printf.sprintf "SELECT flid, qty FROM Trans WHERE qty < %d" c,
              Printf.sprintf "SELECT flid, qty FROM Trans WHERE qty >= %d" c )
        | 1 ->
            (* discrete adjacency: <= c-1 meets >= c with no integer gap *)
            ( true,
              Printf.sprintf "SELECT flid, qty FROM Trans WHERE qty <= %d" (c - 1),
              Printf.sprintf "SELECT flid, qty FROM Trans WHERE qty >= %d" c )
        | 2 ->
            let y = 1993 + (i mod 3) in
            ( true,
              Printf.sprintf
                "SELECT flid, qty FROM Trans WHERE year(date) < %d" y,
              Printf.sprintf
                "SELECT flid, qty FROM Trans WHERE year(date) >= %d" y )
        | 3 ->
            (* gap: disjoint but the cut point falls through both sides *)
            ( false,
              Printf.sprintf "SELECT flid, qty FROM Trans WHERE qty < %d" c,
              Printf.sprintf "SELECT flid, qty FROM Trans WHERE qty > %d" c )
        | _ ->
            (* overlap: not even disjoint *)
            ( false,
              Printf.sprintf "SELECT flid, qty FROM Trans WHERE qty < %d" c,
              Printf.sprintf "SELECT flid, qty FROM Trans WHERE qty >= %d" (c - 1)
            ))
  in
  let scan_all = Engine.Exec.run pdb (build pcat "SELECT flid, qty FROM Trans") in
  let prove_rows =
    List.map
      (fun n ->
        let lats = ref [] and proved = ref 0 and expected = ref 0 in
        List.iter
          (fun (expect, sa, sb) ->
            if expect then incr expected;
            let ga = build pcat sa and gb = build pcat sb in
            let t0 = Unix.gettimeofday () in
            let cert = Prove.partition ~cat:pcat ga gb in
            lats := ((Unix.gettimeofday () -. t0) *. 1000.) :: !lats;
            match cert.Prove.pc_status with
            | Prove.Proved ->
                incr proved;
                if not expect then begin
                  incr fails;
                  Printf.printf
                    "PERF11 FAILURE: non-partition proved: %s | %s\n" sa sb
                end
                else begin
                  let ra = Engine.Exec.run pdb ga
                  and rb = Engine.Exec.run pdb gb in
                  let union =
                    R.create
                      (Array.to_list (R.columns ra))
                      (R.rows ra @ R.rows rb)
                  in
                  if not (R.bag_equal_approx union scan_all) then begin
                    incr fails;
                    Printf.printf
                      "PERF11 FAILURE: Proved partition contradicted by bag \
                       equality: %s | %s\n"
                      sa sb
                  end
                end
            | Prove.Unknown why ->
                if expect then begin
                  incr fails;
                  Printf.printf
                    "PERF11 FAILURE: partition not proved (%s): %s | %s\n" why
                    sa sb
                end)
          (shard_specs n);
        let lats = List.sort compare !lats in
        let rate = float_of_int !proved /. float_of_int n in
        Printf.printf
          "pairs %-4d proved %d/%d (expected %d)   rate %.2f   p50 %7.3f ms \
           p95 %7.3f ms\n"
          n !proved n !expected rate (pct lats 0.50)
          (pct lats 0.95);
        Json.Obj
          [
            ("pairs", Json.Int n);
            ("proved", Json.Int !proved);
            ("expected_proved", Json.Int !expected);
            ("proof_rate", Json.Num rate);
            ("p50_ms", Json.Num (pct lats 0.50));
            ("p95_ms", Json.Num (pct lats 0.95));
          ])
      [ 32; 64 ]
  in
  let prove_counter name =
    Obs.Metrics.counter_value (Obs.Metrics.counter name)
  in
  proving_obj :=
    Json.Obj
      [
        ("sizes", Json.List prove_rows);
        ("attempts", Json.Int (prove_counter "prove.attempts"));
        ("proved", Json.Int (prove_counter "prove.proved"));
        ("unknown", Json.Int (prove_counter "prove.unknown"));
        ("verify_skips", Json.Int (prove_counter "prove.verify_skips"));
      ];
  print_newline ();

  (* ---------------- PERF8: multi-core socket serving ----------------- *)
  (* Boot the real server (TCP, ephemeral port) at increasing domain
     counts and drive it with concurrent client threads issuing a mixed
     read+DML workload: rewritten aggregates over a shared read-only fact
     table interleaved with INSERTs into a per-client scratch table (so
     every client's responses have a deterministic single-threaded
     reference despite concurrent DML — the bag-equality check at the end
     is exact). Reports queries/sec and client-observed p50/p99 per domain
     count. Throughput scaling only materializes with real cores; the
     smoke gate therefore only requires that 4 domains are not
     substantially SLOWER than 1 (lock contention / snapshot overhead),
     while multi-core hosts should see the full parallel speedup on the
     read-heavy mix. *)
  Printf.printf
    "=== PERF8: socket serving, mixed read+DML workload (%d clients) ===\n"
    8;
  let serve_clients = 8 in
  let reqs_per_client = if smoke then 25 else 150 in
  let domain_counts = if smoke then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  let mk_serve_shared () =
    let sn = Mvstore.Session.create () in
    ignore
      (Mvstore.Session.exec_sql sn
         "CREATE TABLE sfact (grp INT NOT NULL, v INT NOT NULL); CREATE \
          SUMMARY TABLE sfact_by_grp AS SELECT grp, SUM(v) AS s, COUNT(*) \
          AS c FROM sfact GROUP BY grp;");
    let vals =
      List.init 400 (fun i -> Printf.sprintf "(%d, %d)" (i mod 8) i)
      |> String.concat ", "
    in
    ignore
      (Mvstore.Session.exec_sql sn
         (Printf.sprintf
            "INSERT INTO sfact VALUES %s; REFRESH SUMMARY TABLE \
             sfact_by_grp;"
            vals));
    Mvstore.Session.share sn
  in
  let serve_mismatches = Atomic.make 0 in
  let serve_errors = Atomic.make 0 in
  (* [degrade:true] pins the overload ladder's first rung permanently on
     (watermark 0): every request is served from base plans, measuring the
     floor the server falls back to under queue pressure. The default
     explicitly disables the rung so 8 clients briefly queueing on fewer
     domains cannot contaminate the full-quality rows. *)
  let run_serving ?(degrade = false) domains =
    let shared = mk_serve_shared () in
    let srv =
      Server.Listener.start
        (Server.Listener.config
           ~addr:(Server.Listener.Tcp ("127.0.0.1", 0))
           ~domains ~queue_depth:(serve_clients + 4) ~backlog:64
           ~degrade_watermark:(if degrade then 0 else -1)
           ())
        ~mk_session:(fun () -> Mvstore.Session.attach shared)
    in
    let addr =
      Server.Listener.Tcp ("127.0.0.1", Option.get (Server.Listener.port srv))
    in
    let lat_m = Mutex.create () in
    let all_lats = ref [] in
    let client_thread ci =
      let c = Server.Client.connect_addr addr in
      let lats = ref [] in
      let tbl = Printf.sprintf "scratch_c%d" ci in
      let req sql =
        let t0 = Unix.gettimeofday () in
        (match Server.Client.request c sql with
        | Ok _ -> ()
        | Error _ -> Atomic.incr serve_errors
        | exception _ -> Atomic.incr serve_errors);
        lats := ((Unix.gettimeofday () -. t0) *. 1000.) :: !lats
      in
      req (Printf.sprintf "CREATE TABLE %s (a INT NOT NULL, b INT NOT NULL);" tbl);
      let expected = ref [] in
      for j = 1 to reqs_per_client do
        if j mod 5 = 0 then begin
          (* DML: goes through the serialized writer, bumps the epoch *)
          req (Printf.sprintf "INSERT INTO %s VALUES (%d, %d);" tbl j (ci * j));
          expected := (j, ci * j) :: !expected
        end
        else
          (* read: lock-free snapshot, rewritten against the summary *)
          req
            "SELECT grp, SUM(v) AS s, COUNT(*) AS c FROM sfact GROUP BY \
             grp ORDER BY grp;"
      done;
      (* correctness: this client's view of its own table is exactly the
         single-threaded reference, whatever the cross-client schedule *)
      (match
         Server.Client.request c
           (Printf.sprintf "SELECT a, b FROM %s ORDER BY a;" tbl)
       with
      | Ok r -> (
          match r.Server.Wire.rp_results with
          | [ Server.Wire.Table (_, rows) ] ->
              let got =
                List.map
                  (function
                    | [| Data.Value.Int a; Data.Value.Int b |] -> (a, b)
                    | _ -> (min_int, min_int))
                  rows
              in
              if got <> List.rev !expected then
                Atomic.incr serve_mismatches
          | _ -> Atomic.incr serve_mismatches)
      | Error _ | (exception _) -> Atomic.incr serve_errors);
      Server.Client.close c;
      Mutex.lock lat_m;
      all_lats := !lats @ !all_lats;
      Mutex.unlock lat_m
    in
    let t0 = Unix.gettimeofday () in
    let threads =
      List.init serve_clients (fun i -> Thread.create client_thread i)
    in
    List.iter Thread.join threads;
    let wall = Unix.gettimeofday () -. t0 in
    Server.Listener.stop srv;
    let lats = List.sort compare !all_lats in
    let n = List.length lats in
    let qps = float_of_int n /. wall in
    Printf.printf
      "domains %d%s   %7.0f req/s   p50 %7.3f ms   p99 %8.3f ms   (%d \
       requests, %.2f s)\n%!"
      domains
      (if degrade then " (degraded: base plans)" else "")
      qps (pct lats 0.50) (pct lats 0.99) n wall;
    ( domains,
      qps,
      Json.Obj
        [
          ("domains", Json.Int domains);
          ("degraded", Json.Bool degrade);
          ("qps", Json.Num qps);
          ("p50_ms", Json.Num (pct lats 0.50));
          ("p99_ms", Json.Num (pct lats 0.99));
          ("requests", Json.Int n);
          ("wall_s", Json.Num wall);
        ] )
  in
  let serving_rows = List.map (fun d -> run_serving d) domain_counts in
  (* degraded-mode throughput: what the overload ladder's first rung
     serves. Correctness still gated (base plans are exact); no scaling
     gate — this row documents the floor, not the ceiling. *)
  let degraded_row = run_serving ~degrade:true 4 in
  let serving_qps d =
    List.find_map
      (fun (d', qps, _) -> if d' = d then Some qps else None)
      serving_rows
  in
  let cores = Domain.recommended_domain_count () in
  (match (serving_qps 1, serving_qps 4) with
  | Some q1, Some q4 ->
      Printf.printf "4-domain/1-domain throughput: %.2fx (%d core%s)\n"
        (q4 /. q1) cores
        (if cores = 1 then "" else "s");
      (* Parallel speedup is only physically possible with the cores to
         back it; on a saturated 1-core box 4 domains just contend. *)
      if cores >= 4 && q4 < 0.75 *. q1 then begin
        incr fails;
        Printf.printf
          "SERVING FAILURE: 4 domains (%.0f req/s) substantially slower \
           than 1 (%.0f req/s) — contention in the serving path\n"
          q4 q1
      end
      else if cores < 4 then
        Printf.printf
          "scaling gate skipped: only %d core(s) available\n" cores
  | _ -> ());
  if Atomic.get serve_mismatches > 0 then begin
    incr fails;
    Printf.printf
      "SERVING FAILURE: %d client(s) saw responses diverge from the \
       single-threaded reference\n"
      (Atomic.get serve_mismatches)
  end;
  if Atomic.get serve_errors > 0 then begin
    incr fails;
    Printf.printf "SERVING FAILURE: %d request error(s) under load\n"
      (Atomic.get serve_errors)
  end;
  let serving_obj =
    Json.Obj
      [
        ("clients", Json.Int serve_clients);
        ("cores", Json.Int cores);
        ("requests_per_client", Json.Int reqs_per_client);
        ( "read_fraction",
          Json.Num (1.0 -. (1.0 /. 5.0)) );
        ("rows", Json.List (List.map (fun (_, _, j) -> j) serving_rows));
        ("degraded_rows", Json.List [ (fun (_, _, j) -> j) degraded_row ]);
      ]
  in
  print_newline ();

  (* ---------------- PERF9: durability write-path overhead ------------ *)
  (* Cost of the WAL commit hook per fsync policy: the same INSERT
     workload against a plain in-memory session (baseline), then against
     durable sessions logging with fsync off / every 16 commits / every
     commit. The off/interval rows isolate the framing + write(2) cost;
     the always row is dominated by fsync latency of the backing device,
     so it is reported but not gated. *)
  Printf.printf "=== PERF9: durability write-path overhead per fsync policy ===\n";
  let dur_stmts = if smoke then 200 else 1000 in
  let temp_dur_dir () =
    let d = Filename.temp_file "astrw-bench-dur" "" in
    Sys.remove d;
    Unix.mkdir d 0o700;
    d
  in
  let rm_rf dir =
    Array.iter
      (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
      (try Sys.readdir dir with Sys_error _ -> [||]);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  let time_inserts sn =
    ignore
      (Mvstore.Session.exec_sql sn
         "CREATE TABLE wlog (seq INT NOT NULL, v INT NOT NULL);");
    let t0 = Unix.gettimeofday () in
    for i = 1 to dur_stmts do
      ignore
        (Mvstore.Session.exec_sql sn
           (Printf.sprintf "INSERT INTO wlog VALUES (%d, %d);" i (i * 3)))
    done;
    (Unix.gettimeofday () -. t0) *. 1000.
  in
  let baseline_ms = time_inserts (Mvstore.Session.create ()) in
  let durability_row (label, policy) =
    let dir = temp_dur_dir () in
    let cfg =
      {
        Durable.Manager.c_dir = dir;
        c_fsync = policy;
        c_checkpoint_every = 0;
      }
    in
    let mgr, shared, _ = Durable.Manager.recover cfg in
    let sn = Mvstore.Session.attach shared in
    Durable.Manager.bind mgr sn;
    let ms = time_inserts sn in
    Durable.Manager.close mgr;
    rm_rf dir;
    let per_stmt_us = ms *. 1000. /. float_of_int dur_stmts in
    Printf.printf
      "%-12s %8.1f ms for %d statements   %8.2f us/stmt   %5.2fx baseline\n%!"
      label ms dur_stmts per_stmt_us (ms /. baseline_ms);
    Json.Obj
      [
        ("policy", Json.Str label);
        ("statements", Json.Int dur_stmts);
        ("wall_ms", Json.Num ms);
        ("us_per_stmt", Json.Num per_stmt_us);
        ("overhead_vs_baseline", Json.Num (ms /. baseline_ms));
      ]
  in
  Printf.printf
    "%-12s %8.1f ms for %d statements   %8.2f us/stmt   (baseline)\n%!"
    "in-memory" baseline_ms dur_stmts
    (baseline_ms *. 1000. /. float_of_int dur_stmts);
  let durability_rows =
    List.map durability_row
      [
        ("off", Durable.Wal.Off);
        ("interval:16", Durable.Wal.Interval 16);
        ("always", Durable.Wal.Always);
      ]
  in
  let durability_obj =
    Json.Obj
      [
        ("statements", Json.Int dur_stmts);
        ("baseline_ms", Json.Num baseline_ms);
        ("rows", Json.List durability_rows);
      ]
  in
  print_newline ();

  (* ---------------- BENCH_results.json ------------------------------- *)
  let results_path = "BENCH_results.json" in
  Json.to_file results_path
    (Json.Obj
       [
         ("scale", Json.Int scale);
         ("smoke", Json.Bool smoke);
         ("verification_failures", Json.Int !fails);
         ("figures", Json.List !figure_rows);
         ("workload", Json.List !workload_rows);
         ( "workload_total",
           Json.Obj
             [
               ("base_ms", Json.Num !tot_base);
               ("plan_ms", Json.Num !tot_plan);
               ("exec_ms", Json.Num !tot_exec);
               ("rewritten_ms", Json.Num (!tot_plan +. !tot_exec));
             ] );
         ("planning", !planning_obj);
         ("governed_planning", !governed_obj);
         ("serving", serving_obj);
         ("durability", durability_obj);
         ("verification", Json.Obj verify_rows);
         ("proving", !proving_obj);
         (* the live registry, same schema as \metrics json / --metrics-out *)
         ("metrics", Obs.Metrics.to_json ());
       ]);
  Printf.printf "wrote %s\n%!" results_path;
  let metrics_path = "BENCH_metrics.json" in
  Obs.Metrics.dump metrics_path;
  Printf.printf "wrote %s\n\n%!" metrics_path;

  (* ---------------- perf-regression gate ----------------------------- *)
  (* bench/baseline.json records per-query workload timings at smoke
     scale; --gate compares this run against it and fails on a >30%
     exec_ms regression (plus 0.5 ms absolute slack, so sub-millisecond
     rows don't gate on scheduler noise). *)
  (match baseline_out with
  | Some path ->
      Json.to_file path
        (Json.Obj
           [
             ("scale", Json.Int scale);
             ("workload", Json.List !workload_rows);
             ("proving", !proving_obj);
           ]);
      Printf.printf "wrote baseline %s\n%!" path
  | None -> ());
  (match gate_path with
  | None -> ()
  | Some path ->
      let base =
        let text = In_channel.with_open_text path In_channel.input_all in
        match Json.of_string text with
        | Ok j -> j
        | Error e ->
            Printf.printf "GATE ERROR: cannot parse %s: %s\n%!" path e;
            exit 2
      in
      let num = function
        | Some (Json.Num x) | Some (Json.Float x) -> x
        | Some (Json.Int n) -> float_of_int n
        | _ -> nan
      in
      (match Json.member "scale" base with
      | Some (Json.Int s) when s <> scale ->
          Printf.printf
            "GATE WARNING: baseline was recorded at scale %d, this run is \
             scale %d\n"
            s scale
      | _ -> ());
      let rows =
        match Json.member "workload" base with
        | Some (Json.List l) -> l
        | _ -> []
      in
      Printf.printf "=== bench gate: %s (>30%% exec regression + 0.5 ms) ===\n"
        path;
      Printf.printf "%-24s %13s %13s %10s\n" "query" "baseline(ms)" "now(ms)"
        "verdict";
      let gate_fails = ref 0 in
      List.iter
        (fun brow ->
          let name =
            match Json.member "query" brow with
            | Some (Json.Str s) -> s
            | _ -> "?"
          in
          let b_exec = num (Json.member "exec_ms" brow) in
          match
            List.find_opt
              (fun r -> Json.member "query" r = Some (Json.Str name))
              !workload_rows
          with
          | None ->
              incr gate_fails;
              Printf.printf "%-24s %13.2f %13s %10s\n" name b_exec "-" "MISSING"
          | Some r ->
              let c_exec = num (Json.member "exec_ms" r) in
              let limit = (b_exec *. 1.30) +. 0.5 in
              let ok = (not (Float.is_nan c_exec)) && c_exec <= limit in
              if not ok then incr gate_fails;
              Printf.printf "%-24s %13.2f %13.2f %10s\n" name b_exec c_exec
                (if ok then "ok" else "REGRESSED"))
        rows;
      (* prover-coverage gate: the partition proved count is a
         deterministic integer (counting, not timing), so any drop below
         the recorded baseline is a real capability regression, not
         runner noise. *)
      let proved_rows j =
        match Option.bind j (Json.member "sizes") with
        | Some (Json.List l) ->
            List.filter_map
              (fun row ->
                match (Json.member "pairs" row, Json.member "proved" row) with
                | Some (Json.Int n), Some (Json.Int p) -> Some (n, p)
                | _ -> None)
              l
        | _ -> []
      in
      let now_proved = proved_rows (Some !proving_obj) in
      List.iter
        (fun (n, b_proved) ->
          match List.assoc_opt n now_proved with
          | Some c when c >= b_proved -> ()
          | Some c ->
              incr gate_fails;
              Printf.printf
                "proof count at %d pairs regressed: baseline %d, now %d\n" n
                b_proved c
          | None ->
              incr gate_fails;
              Printf.printf "proof-count row for %d pairs MISSING\n" n)
        (proved_rows (Json.member "proving" base));
      if !gate_fails > 0 then begin
        Printf.printf "BENCH GATE FAILURE: %d row(s) regressed\n%!" !gate_fails;
        exit 1
      end;
      Printf.printf "bench gate OK\n\n%!");

  if smoke then begin
    Printf.printf "smoke mode: skipping bechamel timings\n";
    if !fails > 0 then begin
      Printf.printf "SMOKE FAILURE: %d verification failure(s)\n%!" !fails;
      exit 1
    end;
    Printf.printf "smoke OK\n%!";
    exit 0
  end;

  (* ---------------- bechamel: one Test.make per figure --------------- *)
  Printf.printf "=== bechamel timings (monotonic clock, ns/run) ===\n%!";
  let open Bechamel in
  let tests =
    List.concat_map
      (fun p ->
        match p.p_rewritten with
        | None -> []
        | Some g' ->
            [
              Test.make
                ~name:(p.p_case.Workload.Paper_queries.name ^ "/original")
                (Staged.stage (fun () -> Engine.Exec.run p.p_db p.p_query));
              Test.make
                ~name:(p.p_case.Workload.Paper_queries.name ^ "/rewritten")
                (Staged.stage (fun () -> Engine.Exec.run p.p_db g'));
            ])
      prepared
  in
  let grouped = Test.make_grouped ~name:"figures" ~fmt:"%s %s" tests in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 100) ()
  in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.iter
    (fun (name, r) ->
      match Analyze.OLS.estimates r with
      | Some [ est ] -> Printf.printf "%-40s %14.0f ns/run\n" name est
      | _ -> Printf.printf "%-40s %14s\n" name "n/a")
    (List.sort compare rows);
  Printf.printf "\ndone.\n"
