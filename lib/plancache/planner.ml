type decision =
  | No_rewrite
  | Rewrite of Qgm.Graph.t * Astmatch.Rewrite.step list

(* One entry per query shape, under the template fingerprint. *)
type entry = {
  en_decision : decision;
  en_exact : string;  (* the exact fingerprint the decision was planned for *)
  en_route : string list;  (* the summaries its steps used, in step order *)
  en_cost : float;  (* estimated cost of the decision's graph *)
  en_sensitive : string list;
      (* eligible summaries whose definition has a WHERE or HAVING
         predicate: the only ones whose match can change with a constant *)
  en_shared : bool;
      (* no candidate was held or failed while planning it, so every
         candidate left out of a re-match was judged *)
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

type cache_outcome = Hit | Template_hit | Miss

type report = {
  pr_graph : Qgm.Graph.t;
  pr_steps : Astmatch.Rewrite.step list;
  pr_cache : cache_outcome;
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
let m_template_hits = Obs.Metrics.counter "plan.template_hits"
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
  (* the decision cached for [fp] (if any) embeds the now-discredited
     candidate *)
  Cache.remove_where t.p_cache (fun e -> e.en_exact = fp)

let versions_of (mvs : Astmatch.Rewrite.mv list) =
  List.map (fun (mv : Astmatch.Rewrite.mv) -> (mv.mv_name, mv.mv_version)) mvs

let index t ~epoch mvs =
  if t.p_index_epoch <> epoch then begin
    t.p_index <- Candidates.build mvs;
    t.p_index_epoch <- epoch
  end;
  t.p_index

let classify t ~cat ~epoch ~mvs g = Candidates.eligible (index t ~epoch mvs) cat g

let report_of g fp ~cache ~errors ?(validated = 0) (e : entry) =
  let graph, steps =
    match e.en_decision with
    | No_rewrite -> (g, [])
    | Rewrite (g', steps) -> (g', steps)
  in
  {
    pr_graph = graph;
    pr_steps = steps;
    pr_cache = cache;
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

(* Route [g] over [candidates] and check a rewritten plan statically.
   A failure judging one candidate quarantines that (fingerprint x
   summary-table) pair and planning continues with the others; a plan
   that fails validation never executes: its summaries are quarantined
   and the query degrades to the base plan. Returns the decision, the
   contained failures (oldest first) and the number of validator runs
   (1 when routing found a rewrite). *)
let decide ?trace ?budget t ~cat ~fp ~versions g candidates =
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
  let validated = ref 0 in
  let decision =
    match Astmatch.Rewrite.best ~cat ~on_error ?trace ?budget g candidates with
    | None -> No_rewrite
    | Some (g', steps) -> (
        incr validated;
        let g' =
          if Guard.Fault.fire Guard.Fault.Corrupt_plan then corrupt_plan g' steps
          else g'
        in
        match Lint.Validate.check ~cat g' with
        | [] -> Rewrite (g', steps)
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
  in
  (decision, List.rev !errors, !validated)

let route = function
  | No_rewrite -> []
  | Rewrite (_, steps) ->
      List.map (fun (s : Astmatch.Rewrite.step) -> s.used_mv) steps

let decision_cost ~cat g = function
  | No_rewrite -> Astmatch.Cost.graph_cost cat g
  | Rewrite (g', _) -> Astmatch.Cost.graph_cost cat g'

(* Does the summary's definition filter (a WHERE or HAVING predicate)?
   Only such a summary can match one constant and not another. *)
let filters (mv : Astmatch.Rewrite.mv) =
  let g = mv.mv_graph in
  List.exists
    (fun id ->
      match (Qgm.Graph.box g id).Qgm.Box.body with
      | Qgm.Box.Select s -> s.Qgm.Box.sel_preds <> []
      | _ -> false)
    (Qgm.Graph.reachable g (Qgm.Graph.root g))

(* [g] has the shape of entry [e] but other constants. Only the cached
   route's summaries and the constant-sensitive candidates are matched
   again: the cost model reads no literal, so every other candidate
   matches, and costs, what it did when [e] was planned, which was no
   less than [e]'s cost. The result is served when it reproduces the
   cached route at no more than the cached cost (a filtering summary on
   the route may now match with a cheaper compensation, never a dearer
   one), with no failure and no budget cut; otherwise [None], and the
   caller plans in full. Nothing is stored, so a shape keeps one
   entry. *)
let rematch ?trace ?budget t ~cat ~fp ~mvs g e =
  let versions = versions_of mvs in
  let held = Guard.Quarantine.blocked t.p_quarantine ~versions ~fp in
  let candidates =
    List.filter
      (fun (mv : Astmatch.Rewrite.mv) ->
        (List.mem mv.mv_name e.en_route || List.mem mv.mv_name e.en_sensitive)
        && not (List.mem mv.mv_name held))
      mvs
  in
  Obs.Metrics.add m_attempted (List.length candidates);
  let decision, errors, validated =
    Obs.Trace.with_span trace ~kind:"cache" ~label:"template" (fun () ->
        decide ?trace ?budget t ~cat ~fp ~versions g candidates)
  in
  if
    errors = []
    && Option.bind budget Govern.Budget.exhausted = None
    && route decision = e.en_route
    && decision_cost ~cat g decision <= e.en_cost
  then begin
    Obs.Metrics.incr m_hits;
    Obs.Metrics.incr m_template_hits;
    if validated > 0 then Obs.Metrics.incr m_rewrites;
    Obs.Trace.accept trace ~kind:"cache" ~label:fp "template hit";
    Some
      {
        (report_of g fp ~cache:Template_hit ~errors:[] ~validated
           { e with en_decision = decision })
        with
        pr_attempted = List.length candidates;
      }
  end
  else None

let plan_in_full ?trace ?budget t ~cat ~epoch ~mvs ~keys g =
  let fp = keys.Qgm.Fingerprint.exact in
  Obs.Metrics.incr m_misses;
  let versions = versions_of mvs in
  let eligible, skipped = classify t ~cat ~epoch ~mvs g in
  let held_names = Guard.Quarantine.blocked t.p_quarantine ~versions ~fp in
  let kept, held =
    List.partition
      (fun (mv : Astmatch.Rewrite.mv) -> not (List.mem mv.mv_name held_names))
      eligible
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
  let decision, errors, validated =
    decide ?trace ?budget t ~cat ~fp ~versions g kept
  in
  if validated > 0 then Obs.Metrics.incr m_rewrites;
  (* a contained failure that left the query unrewritten is a fallback
     to the base plan; if another AST still served it, it is not *)
  if errors <> [] && decision = No_rewrite then Obs.Metrics.incr m_fallbacks;
  let e =
    {
      en_decision = decision;
      en_exact = fp;
      en_route = route decision;
      en_cost = decision_cost ~cat g decision;
      en_sensitive =
        List.filter_map
          (fun (mv : Astmatch.Rewrite.mv) ->
            if filters mv then Some mv.mv_name else None)
          eligible;
      en_shared = held = [] && errors = [];
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
    Obs.Metrics.add m_evictions
      (Cache.put t.p_cache ~epoch keys.Qgm.Fingerprint.template e)
  else begin
    Obs.Metrics.incr m_degraded;
    Obs.Trace.event trace ~kind:"budget"
      ~label:
        (Printf.sprintf "degraded: %s"
           (Govern.Budget.reason_name (Option.get degraded)))
  end;
  { (report_of g fp ~cache:Miss ~errors ~validated e) with pr_degraded = degraded }

(* The cache is keyed by the template fingerprint, so it holds one entry
   per query shape. The exact fingerprint it was planned for is served
   as it stands; another instance of the shape is re-matched
   ([rematch]); anything else is planned in full and replaces the
   shape's entry. *)
let plan_raw ?trace ?budget t ~cat ~epoch ~mvs g =
  let keys = Qgm.Fingerprint.keys g in
  let fp = keys.Qgm.Fingerprint.exact in
  match Cache.find t.p_cache ~epoch keys.Qgm.Fingerprint.template with
  | Cache.Hit e when e.en_exact = fp ->
      Obs.Metrics.incr m_hits;
      Obs.Trace.accept trace ~kind:"cache" ~label:fp "hit";
      report_of g fp ~cache:Hit ~errors:[] e
  | Cache.Hit e when e.en_shared -> (
      match rematch ?trace ?budget t ~cat ~fp ~mvs g e with
      | Some r -> r
      | None -> plan_in_full ?trace ?budget t ~cat ~epoch ~mvs ~keys g)
  | Cache.Hit _ | Cache.Absent ->
      plan_in_full ?trace ?budget t ~cat ~epoch ~mvs ~keys g
  | Cache.Stale ->
      Obs.Metrics.incr m_invalidated;
      plan_in_full ?trace ?budget t ~cat ~epoch ~mvs ~keys g

let base_report g ~errors ~degraded =
  {
    pr_graph = g;
    pr_steps = [];
    pr_cache = Miss;
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
