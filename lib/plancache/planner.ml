type decision =
  | No_rewrite
  | Rewrite of Qgm.Graph.t * Astmatch.Rewrite.step list

type entry = {
  en_decision : decision;
  en_attempted : int;
  en_filtered : int;
  en_quarantined : int;
}

type t = {
  p_cache : entry Cache.t;
  p_quarantine : Guard.Quarantine.t;
  mutable p_index : Candidates.t;
  mutable p_index_epoch : int;
}

type report = {
  pr_graph : Qgm.Graph.t;
  pr_steps : Astmatch.Rewrite.step list;
  pr_hit : bool;
  pr_fingerprint : string;
  pr_attempted : int;
  pr_filtered : int;
  pr_quarantined : int;
  pr_errors : Guard.Error.t list;
  pr_degraded : Govern.Budget.reason option;
  pr_validated : int;  (* static validator runs during this planning *)
}

let create ?(capacity = 256) () =
  {
    p_cache = Cache.create ~capacity;
    p_quarantine = Guard.Quarantine.create ();
    p_index = Candidates.build [];
    p_index_epoch = min_int;
  }

let cache_length t = Cache.length t.p_cache
let quarantine_length t = Guard.Quarantine.entries t.p_quarantine

let m_requests = Obs.Metrics.counter "plan.requests"
let m_hits = Obs.Metrics.counter "plan.cache_hits"
let m_misses = Obs.Metrics.counter "plan.cache_misses"
let m_invalidated = Obs.Metrics.counter "plan.cache_invalidated"
let m_evictions = Obs.Metrics.counter "plan.cache_evictions"
let m_rewrites = Obs.Metrics.counter "plan.rewrites"
let m_attempted = Obs.Metrics.counter "plan.attempted"
let m_filtered = Obs.Metrics.counter "plan.filtered"
let m_quarantine_skips = Obs.Metrics.counter "plan.quarantine_skips"
let m_errors = Obs.Metrics.counter "plan.contained_errors"
let m_plan_ms = Obs.Metrics.histogram "plan.ms"
let m_fallbacks = Obs.Metrics.counter "guard.fallbacks"
let m_quarantined = Obs.Metrics.counter "guard.quarantined"
let m_degraded = Obs.Metrics.counter "govern.degraded_plans"
let m_lint_final = Obs.Metrics.counter "lint.final_rejects"

(* Quarantine one (fingerprint x summary-table) pair, counting it only when
   it is new. *)
let hold t ~fp ~version mv =
  if Guard.Quarantine.add t.p_quarantine ~version ~fp ~mv then
    Obs.Metrics.incr m_quarantined

let quarantine t ~fp mvs =
  List.iter (fun (mv, version) -> hold t ~fp ~version mv) mvs;
  (* the cached decision (if any) embeds the now-discredited candidate *)
  Cache.remove t.p_cache fp

let versions_of (mvs : Astmatch.Rewrite.mv list) =
  List.map (fun (mv : Astmatch.Rewrite.mv) -> (mv.mv_name, mv.mv_version)) mvs

let index t ~epoch mvs =
  if t.p_index_epoch <> epoch then begin
    t.p_index <- Candidates.build mvs;
    t.p_index_epoch <- epoch
  end;
  t.p_index

let classify t ~cat ~epoch ~mvs g = Candidates.eligible (index t ~epoch mvs) cat g

let report_of g fp ~hit ~errors ?(validated = 0) (e : entry) =
  let graph, steps =
    match e.en_decision with
    | No_rewrite -> (g, [])
    | Rewrite (g', steps) -> (g', steps)
  in
  {
    pr_graph = graph;
    pr_steps = steps;
    pr_hit = hit;
    pr_fingerprint = fp;
    pr_attempted = e.en_attempted;
    pr_filtered = e.en_filtered;
    pr_quarantined = e.en_quarantined;
    pr_errors = errors;
    pr_degraded = None;
    pr_validated = validated;
  }

(* The Corrupt_plan fault: repoint the first quantifier of the last
   step's compensation at a box id that does not exist. That box is
   reachable in the final plan and always has a quantifier (the one
   ranging over the summary table or the compensation level below), so
   the damage is always statically detectable (V103). *)
let corrupt_plan g (steps : Astmatch.Rewrite.step list) =
  let module B = Qgm.Box in
  let target = (List.hd (List.rev steps)).target in
  let dangle q = { q with B.q_box = 1_000_000 + q.B.q_box } in
  let body =
    match (Qgm.Graph.box g target).B.body with
    | B.Select ({ B.sel_quants = q :: rest; _ } as s) ->
        B.Select { s with B.sel_quants = dangle q :: rest }
    | B.Group grp -> B.Group { grp with B.grp_quant = dangle grp.B.grp_quant }
    | B.Union ({ B.un_quants = q :: rest; _ } as u) ->
        B.Union { u with B.un_quants = dangle q :: rest }
    | body -> body
  in
  Qgm.Graph.update_box g target body

let plan_raw ?trace ?budget t ~cat ~epoch ~mvs g =
  let fp = Qgm.Fingerprint.of_graph g in
  match Cache.find t.p_cache ~epoch fp with
  | Cache.Hit e ->
      Obs.Metrics.incr m_hits;
      Obs.Trace.accept trace ~kind:"cache" ~label:fp "hit";
      report_of g fp ~hit:true ~errors:[] e
  | (Cache.Stale | Cache.Absent) as l ->
      if l = Cache.Stale then Obs.Metrics.incr m_invalidated;
      Obs.Metrics.incr m_misses;
      let versions = versions_of mvs in
      let kept, skipped = classify t ~cat ~epoch ~mvs g in
      let held_names = Guard.Quarantine.blocked t.p_quarantine ~versions ~fp in
      let kept, held =
        List.partition
          (fun (mv : Astmatch.Rewrite.mv) ->
            not (List.mem mv.mv_name held_names))
          kept
      in
      List.iter
        (fun (mv : Astmatch.Rewrite.mv) ->
          Obs.Trace.reject trace ~kind:"candidate" ~label:mv.mv_name
            Obs.Trace.Filtered_by_index)
        skipped;
      List.iter
        (fun (mv : Astmatch.Rewrite.mv) ->
          Obs.Trace.reject trace ~kind:"candidate" ~label:mv.mv_name
            Obs.Trace.Quarantined)
        held;
      Obs.Metrics.add m_attempted (List.length kept);
      Obs.Metrics.add m_filtered (List.length skipped);
      Obs.Metrics.add m_quarantine_skips (List.length held);
      (* contained failures: the offending summary table is quarantined for
         this fingerprint and planning continues with the others *)
      let errors = ref [] in
      let on_error mv_name exn =
        let err = Guard.Error.classify ~stage:Guard.Error.Match ~mv:mv_name exn in
        errors := err :: !errors;
        Obs.Metrics.incr m_errors;
        Obs.Trace.reject trace ~kind:"candidate" ~label:mv_name
          (Obs.Trace.Contained_error (Guard.Error.to_string err));
        Option.iter
          (fun version -> hold t ~fp ~version mv_name)
          (List.assoc_opt mv_name versions)
      in
      let decision =
        match Astmatch.Rewrite.best ~cat ~on_error ?trace ?budget g kept with
        | None -> No_rewrite
        | Some (g', steps) ->
            Obs.Metrics.incr m_rewrites;
            Rewrite (g', steps)
      in
      (* the final static check: a rewritten plan that fails validation
         never executes — its summaries are quarantined and the query
         degrades to the base plan *)
      let validated = match decision with Rewrite _ -> 1 | No_rewrite -> 0 in
      let decision =
        match decision with
        | Rewrite (g', steps) -> (
            let g' =
              if Guard.Fault.fire Guard.Fault.Corrupt_plan then
                corrupt_plan g' steps
              else g'
            in
            match Lint.Validate.check ~cat g' with
            | [] -> decision
            | vs ->
                Obs.Metrics.incr m_lint_final;
                let msg = Lint.Validate.summary vs in
                let mv0 =
                  match steps with
                  | (s : Astmatch.Rewrite.step) :: _ -> Some s.used_mv
                  | [] -> None
                in
                errors :=
                  {
                    Guard.Error.err_stage = Guard.Error.Validate;
                    err_kind = Guard.Error.Ill_formed msg;
                    err_mv = mv0;
                  }
                  :: !errors;
                Obs.Metrics.incr m_errors;
                Obs.Trace.reject trace ~kind:"plan" ~label:"final plan"
                  (Obs.Trace.Ir_invalid msg);
                List.iter
                  (fun (s : Astmatch.Rewrite.step) ->
                    Option.iter
                      (fun version -> hold t ~fp ~version s.used_mv)
                      (List.assoc_opt s.used_mv versions))
                  steps;
                No_rewrite)
        | No_rewrite -> decision
      in
      (* a contained failure that left the query unrewritten is a fallback
         to the base plan; if another AST still served it, it is not *)
      if !errors <> [] && decision = No_rewrite then
        Obs.Metrics.incr m_fallbacks;
      let e =
        {
          en_decision = decision;
          en_attempted = List.length kept;
          en_filtered = List.length skipped;
          en_quarantined = List.length held;
        }
      in
      let degraded = Option.bind budget Govern.Budget.exhausted in
      (* a budget-truncated decision is best-so-far, not the planner's
         answer for this query: serving it again from the cache would make
         a transient resource shortage permanent, so it is never stored *)
      if degraded = None then
        Obs.Metrics.add m_evictions (Cache.put t.p_cache ~epoch fp e)
      else begin
        Obs.Metrics.incr m_degraded;
        Obs.Trace.event trace ~kind:"budget"
          ~label:
            (Printf.sprintf "degraded: %s"
               (Govern.Budget.reason_name (Option.get degraded)))
      end;
      { (report_of g fp ~hit:false ~errors:(List.rev !errors) ~validated e) with
        pr_degraded = degraded }

let base_report g ~errors ~degraded =
  {
    pr_graph = g;
    pr_steps = [];
    pr_hit = false;
    pr_fingerprint = "";
    pr_attempted = 0;
    pr_filtered = 0;
    pr_quarantined = 0;
    pr_errors = errors;
    pr_degraded = degraded;
    pr_validated = 0;
  }

let plan ?trace ?budget t ~cat ~epoch ~mvs g =
  (* the outer sandbox: even a failure outside any one candidate
     (fingerprinting, the candidate index, base-graph costing, the cache
     itself) degrades to the unrewritten plan, never to an exception *)
  Obs.Metrics.incr m_requests;
  match
    Obs.Metrics.time m_plan_ms (fun () ->
        Guard.Sandbox.protect ~stage:Guard.Error.Plan (fun () ->
            Obs.Trace.with_span trace ~kind:"plan" ~label:""
              ~result:(fun r ->
                match r.pr_steps with
                | [] -> Obs.Trace.Step
                | steps ->
                    Obs.Trace.Accepted
                      (Printf.sprintf "rewritten via %s"
                         (String.concat ", "
                            (List.map
                               (fun (s : Astmatch.Rewrite.step) -> s.used_mv)
                               steps))))
              (fun () ->
                Guard.Fault.hit Guard.Fault.Plan;
                plan_raw ?trace ?budget t ~cat ~epoch ~mvs g)))
  with
  | Ok r -> r
  | Error err ->
      Obs.Metrics.incr m_errors;
      Obs.Metrics.incr m_fallbacks;
      base_report g ~errors:[ err ] ~degraded:None
  | exception Govern.Budget.Budget_exhausted reason ->
      (* belt and braces: Rewrite.best already absorbs exhaustion, so this
         only triggers if a budget check fires outside the routing loop —
         still a graceful base-plan degradation, never an error *)
      Obs.Metrics.incr m_degraded;
      base_report g ~errors:[] ~degraded:(Some reason)
