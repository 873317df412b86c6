(* The match function (paper sections 3, 4 and 5).

   [match_boxes ctx e r] decides whether subsumee box [e] (query graph)
   matches subsumer box [r] (AST graph) and, if so, produces the
   compensation. The function is memoized per (e, r) pair and recurses into
   child pairs, which realizes the navigator's bottom-up discipline: by the
   time a pair is judged, all child pair-wise combinations have been judged.

   Pattern coverage:
   - base tables                                 (leaf seeding)
   - SELECT/SELECT, exact child matches          (4.1.1)
   - SELECT/SELECT, SELECT-only child comp       (4.2.3)
   - SELECT/SELECT, grouping child comp          (4.2.4)
   - GROUP-BY/GROUP-BY, exact child matches      (4.1.2)
   - GROUP-BY/GROUP-BY, SELECT-only child comp   (4.2.1)
   - GROUP-BY/GROUP-BY, GROUP-BY child comp      (4.2.2, recursive)
   - simple or cube query vs. cube AST           (5.1, 5.2)

   Deliberate rejections, documented in DESIGN.md: correlated queries
   (excluded upstream), outer joins, DISTINCT asymmetries, ambiguous
   self-join pairings (paper footnote 3). *)

module E = Qgm.Expr
module B = Qgm.Box
module G = Qgm.Graph
module M = Mtypes
module V = Data.Value

let norm = String.lowercase_ascii
let col_mem c cols = List.exists (fun x -> norm x = norm c) cols
let canon_tx equiv e = E.normalize (Equiv.canon equiv e)

let show_tx e = E.to_string (Format.asprintf "%a" M.pp_txref) e

let show_q e =
  E.to_string (fun { B.quant; col } -> Printf.sprintf "q%d.%s" quant col) e

(* ------------------------------------------------------------------ *)
(* Pure helpers (no recursion into match_boxes)                        *)
(* ------------------------------------------------------------------ *)

let child_comp_levels (asg : Mctx.assignment) =
  List.concat_map
    (fun (_, rq, res) ->
      match res with M.Exact _ -> [] | M.Comp levels -> [ (rq, levels) ])
    asg.Mctx.pairs

(* All predicates of a compensation stack, each lifted into subsumer-input
   space: expanded through the levels below it, then Below -> Rin. *)
let lifted_comp_preds ~rq levels =
  let rec go below_levels = function
    | [] -> []
    | level :: above ->
        let here =
          match level with
          | M.L_select { ls_preds; _ } ->
              List.filter_map
                (fun p ->
                  Option.map (Translate.lift_cref ~rq)
                    (Translate.through_comp below_levels p))
                ls_preds
          | M.L_group _ -> []
        in
        here @ go (below_levels @ [ level ]) above
  in
  go [] levels

let comp_rejoins levels =
  List.concat_map
    (function
      | M.L_select { ls_rejoins; _ } -> ls_rejoins | M.L_group _ -> [])
    levels

let refs_quants quant_ids p =
  List.exists
    (fun c ->
      match c with
      | M.Rin { B.quant; _ } -> List.mem quant quant_ids
      | M.Rj _ -> false)
    (E.cols p)

(* Extra subsumer children must be provably lossless (4.1.1 condition 1):
   the join can neither eliminate nor duplicate subsumer rows. Scalar
   subqueries contribute exactly one row. Base-table extras are peeled
   iteratively: an extra is removable when every remaining predicate that
   touches it is an equality onto its unique key carried by a declared RI
   constraint from a single (base-table) foreign side; removing it also
   removes those predicates, which unlocks chains like
   Trans -> Acct -> Cust (snowflake dimensions). *)
let extras_lossless (ctx : Mctx.t) (r_sel : B.select_body)
    (extras : B.quant list) =
  let scalar, foreach =
    List.partition (fun q -> q.B.q_kind = B.Scalar) extras
  in
  ignore scalar;
  let quant_box qid =
    List.find_opt (fun q -> q.B.q_id = qid) r_sel.B.sel_quants
  in
  let rec peel remaining preds =
    match remaining with
    | [] -> true
    | _ ->
        let removable x =
          match Props.base_table_of ctx.Mctx.ag x.B.q_box with
          | None -> None
          | Some extra_table -> (
              let touching, rest =
                List.partition
                  (fun p ->
                    List.exists (fun r -> r.B.quant = x.B.q_id) (E.cols p))
                  preds
              in
              let pairs =
                List.map
                  (fun p ->
                    match p with
                    | E.Binop ("=", E.Col a, E.Col b) ->
                        if a.B.quant = x.B.q_id && b.B.quant <> x.B.q_id then
                          Some (a.B.col, b)
                        else if
                          b.B.quant = x.B.q_id && a.B.quant <> x.B.q_id
                        then Some (b.B.col, a)
                        else None
                    | _ -> None)
                  touching
              in
              if List.exists (fun p -> p = None) pairs then None
              else
                let pairs = List.filter_map (fun p -> p) pairs in
                if pairs = [] then None
                else
                  let fk_quants =
                    List.sort_uniq compare
                      (List.map (fun (_, b) -> b.B.quant) pairs)
                  in
                  match fk_quants with
                  | [ fq ] -> (
                      match quant_box fq with
                      | None -> None
                      | Some fquant -> (
                          match
                            Props.base_table_of ctx.Mctx.ag fquant.B.q_box
                          with
                          | None -> None
                          | Some fk_table ->
                              let to_cols = List.map fst pairs in
                              let from_cols =
                                List.map (fun (_, b) -> b.B.col) pairs
                              in
                              if
                                Catalog.ri_holds ctx.Mctx.cat
                                  ~from_table:fk_table ~from_cols
                                  ~to_table:extra_table ~to_cols
                              then Some rest
                              else None))
                  | _ -> None)
        in
        let rec try_each tried = function
          | [] -> false
          | x :: rest -> (
              match removable x with
              | Some preds' -> peel (tried @ rest) preds'
              | None -> try_each (tried @ [ x ]) rest)
        in
        try_each [] remaining
  in
  peel foreach r_sel.B.sel_preds

(* ------------------------------------------------------------------ *)
(* The recursive match function                                        *)
(* ------------------------------------------------------------------ *)

(* Instrumentation: every match_boxes invocation (memo hits included) ticks
   this counter. Tests and the bench read it to prove that a plan served
   from a warm cache performs no matching work at all. Atomic because
   server domains plan in parallel against the same process-wide count. *)
let calls = Atomic.make 0
let match_count () = Atomic.get calls
let reset_match_count () = Atomic.set calls 0

let m_calls = Obs.Metrics.counter "match.calls"
let m_memo_hits = Obs.Metrics.counter "match.memo_hits"
let m_accepts = Obs.Metrics.counter "match.accepts"

let res_outcome = function
  | Some (M.Exact _) -> Obs.Trace.Accepted "exact"
  | Some (M.Comp _) -> Obs.Trace.Accepted "compensated"
  | None -> Obs.Trace.Step

(* ---------------- static certification ---------------- *)

(* Column-type oracle over the translated predicate space: [Rin] references
   resolve against the summary graph, [Rj] (rejoin) references against the
   query graph.  Feeds the prover's discrete-bound normalization. *)
let txref_ty ctx (r_sel : B.select_body) (asg : Mctx.assignment)
    (c : M.txref) =
  match c with
  | M.Rin { B.quant; col } ->
      Option.map
        (fun q -> Qgm.Typing.col_type ctx.Mctx.cat ctx.Mctx.ag q.B.q_box col)
        (List.find_opt (fun q -> q.B.q_id = quant) r_sel.B.sel_quants)
  | M.Rj { B.quant; col } ->
      Option.map
        (fun q -> Qgm.Typing.col_type ctx.Mctx.cat ctx.Mctx.qg q.B.q_box col)
        (List.find_opt (fun q -> q.B.q_id = quant) asg.Mctx.rejoins)

(* Condition 2 (4.1.1, 4.2.3, 4.2.4): every remaining subsumer predicate is
   one of the subsumee / child-compensation predicates or, with predicate
   subsumption on, is entailed by their conjunction (footnote 4: x > 10
   subsumes x > 20; bounds split across conjuncts count too).  The prover
   state is built at most once, and only when some predicate is not a
   syntactic hit.  This is matching work, so it is not deadline-gated. *)
let cond2 ctx r_sel asg ~r_preds_canon ~strong_canon =
  let ty = Prove.key_ty ~col:(txref_ty ctx r_sel asg) in
  let st = lazy (Prove.state_of ~ty strong_canon) in
  List.for_all
    (fun pr ->
      List.mem pr strong_canon
      || (!Config.predicate_subsumption && Prove.entails ~ty (Lazy.force st) pr))
    r_preds_canon

(* Region-equality certificate for a flat SELECT/SELECT match.  Given all
   child pairs certified, [summary AND compensation] selects exactly the
   query's rows over the shared child space iff (1) every summary predicate
   is entailed by the query side, (2) every compensation predicate is
   entailed by the query side, and (3) every query-side predicate is
   entailed by summary + compensation.  Anything short of three [Proved]s
   leaves the match usable but uncertified (runtime verification applies). *)
let certify_select_flat ctx asg ~equiv ~r_outs ~r_preds_canon ~strong_canon
    ~comp_preds (r_sel : B.select_body) =
  if Govern.Budget.deadline_spent ctx.Mctx.budget then
    Prove.Unknown "planning deadline spent"
  else
    let child =
      List.fold_left
        (fun acc (qe, qr, _) ->
          Prove.both acc
            (match
               Hashtbl.find_opt ctx.Mctx.proofs (qe.B.q_box, qr.B.q_box)
             with
            | Some p -> p
            | None -> Prove.Unknown "child pair not certified"))
        Prove.Proved asg.Mctx.pairs
    in
    match child with
    | Prove.Unknown _ -> child
    | Prove.Proved ->
        (* compensation predicates live over the summary's outputs (Below)
           and rejoin columns; map them back into the shared txref space to
           compare regions *)
        let back p =
          E.subst_col
            (function
              | M.Below n ->
                  Option.map snd
                    (List.find_opt (fun (m, _) -> norm m = norm n) r_outs)
              | M.Rejoin r -> Some (E.Col (M.Rj r)))
            p
        in
        let comp_tx = List.map back comp_preds in
        if List.exists Option.is_none comp_tx then
          Prove.Unknown
            "a compensation predicate does not map back to summary inputs"
        else
          let comp_canon =
            List.map (fun p -> canon_tx equiv (Option.get p)) comp_tx
          in
          let ty = Prove.key_ty ~col:(txref_ty ctx r_sel asg) in
          Prove.all_proved
            [
              Prove.subsumed ~ty ~weak:r_preds_canon ~strong:strong_canon;
              Prove.subsumed ~ty ~weak:comp_canon ~strong:strong_canon;
              Prove.subsumed ~ty ~weak:strong_canon
                ~strong:(r_preds_canon @ comp_canon);
            ]

(* Deposit a pattern's certificate for [match_boxes] to ledger, tracing the
   typed reason when the proof came back [Unknown]. *)
let set_proof ctx proof =
  (match proof with
  | Prove.Proved -> ()
  | Prove.Unknown w ->
      Obs.Trace.event ctx.Mctx.trace ~kind:"prove"
        ~label:(Obs.Trace.describe (Obs.Trace.Prove_unknown w)));
  ctx.Mctx.pending_proof <- Some proof

(* Span around one box-pair judgment; a rejection leaf inside names the
   violated condition, this span names the pair and its shapes. *)
let pair_span ctx e_id r_id shapes f =
  Obs.Trace.with_span ctx.Mctx.trace ~kind:"match"
    ~label:(Printf.sprintf "query box %d vs summary box %d (%s)" e_id r_id shapes)
    ~result:res_outcome f

(* Leaf marker naming the paper pattern about to be attempted, so the trace
   reads "which pattern, then why it failed". *)
let pattern ctx label =
  Obs.Trace.event ctx.Mctx.trace ~kind:"pattern" ~label

let rec match_boxes (ctx : Mctx.t) e_id r_id =
  ignore (Atomic.fetch_and_add calls 1);
  Obs.Metrics.incr m_calls;
  Guard.Fault.hit Guard.Fault.Match;
  Guard.Fault.maybe_delay ();
  Govern.Budget.tick_match ctx.Mctx.budget;
  match Hashtbl.find_opt ctx.Mctx.memo (e_id, r_id) with
  | Some res ->
      Obs.Metrics.incr m_memo_hits;
      res
  | None ->
      Hashtbl.replace ctx.Mctx.memo (e_id, r_id) None;
      let e_box = G.box ctx.Mctx.qg e_id in
      let r_box = G.box ctx.Mctx.ag r_id in
      let res =
        match (e_box.B.body, r_box.B.body) with
        | B.Base { bt_table = t1; _ }, B.Base { bt_table = t2; bt_cols } ->
            if norm t1 = norm t2 then begin
              (* same base relation verbatim: trivially certified *)
              ctx.Mctx.pending_proof <- Some Prove.Proved;
              Some (M.Exact (List.map (fun c -> (c, c)) bt_cols))
            end
            else None
        | B.Select e_sel, B.Select r_sel ->
            pair_span ctx e_id r_id "SELECT/SELECT" (fun () ->
                match_select_select ctx e_sel r_sel)
        | B.Group e_grp, B.Group r_grp ->
            pair_span ctx e_id r_id "GROUP-BY/GROUP-BY" (fun () ->
                match_group_group ctx e_grp r_grp)
        | B.Select e_sel, B.Group r_grp when e_sel.B.sel_distinct ->
            pair_span ctx e_id r_id "DISTINCT/GROUP-BY" (fun () ->
                match_distinct_vs_group ctx e_sel r_grp)
        | B.Group e_grp, B.Select r_sel when r_sel.B.sel_distinct ->
            pair_span ctx e_id r_id "GROUP-BY/DISTINCT" (fun () ->
                match_group_vs_distinct ctx e_grp r_sel)
        | _ -> None
      in
      (* Move the pattern's certificate (if any) into the proof ledger;
         every frame clears [pending_proof] so an outer pattern can never
         read a stale inner certificate. *)
      let proof =
        match ctx.Mctx.pending_proof with
        | Some p -> p
        | None -> Prove.Unknown "match pattern not certified"
      in
      ctx.Mctx.pending_proof <- None;
      if res <> None then begin
        Obs.Metrics.incr m_accepts;
        Hashtbl.replace ctx.Mctx.proofs (e_id, r_id) proof
      end;
      Hashtbl.replace ctx.Mctx.memo (e_id, r_id) res;
      res

(* ---------------- child pairing ---------------- *)

and pair_children ctx (e_quants : B.quant list) (r_quants : B.quant list) :
    Mctx.assignment option =
  let candidates qe =
    List.filter_map
      (fun qr ->
        if qr.B.q_kind <> qe.B.q_kind then None
        else
          match match_boxes ctx qe.B.q_box qr.B.q_box with
          | Some res -> Some (qr, res)
          | None -> None)
      r_quants
  in
  let all = List.map (fun qe -> (qe, candidates qe)) e_quants in
  let used = Hashtbl.create 8 in
  let assigned = Hashtbl.create 8 in
  let pairs = ref [] in
  let take qe (qr, res) =
    Hashtbl.replace used qr.B.q_id ();
    Hashtbl.replace assigned qe.B.q_id ();
    pairs := !pairs @ [ (qe, qr, res) ]
  in
  (* pass 1: unique candidates first *)
  List.iter
    (fun (qe, cands) ->
      match cands with
      | [ (qr, res) ] when not (Hashtbl.mem used qr.B.q_id) -> take qe (qr, res)
      | _ -> ())
    all;
  (* pass 2: greedy, preferring exact child matches *)
  List.iter
    (fun (qe, cands) ->
      if not (Hashtbl.mem assigned qe.B.q_id) then begin
        let avail =
          List.filter (fun (qr, _) -> not (Hashtbl.mem used qr.B.q_id)) cands
        in
        let pick =
          match
            List.find_opt
              (fun (_, res) -> match res with M.Exact _ -> true | _ -> false)
              avail
          with
          | Some c -> Some c
          | None -> ( match avail with c :: _ -> Some c | [] -> None)
        in
        match pick with Some c -> take qe c | None -> ()
      end)
    all;
  let rejoins =
    List.filter (fun qe -> not (Hashtbl.mem assigned qe.B.q_id)) e_quants
  in
  let extras =
    List.filter (fun qr -> not (Hashtbl.mem used qr.B.q_id)) r_quants
  in
  if !pairs = [] then None
  else Some { Mctx.pairs = !pairs; rejoins; extras }

(* ---------------- SELECT / SELECT ---------------- *)

and match_select_select ctx (e_sel : B.select_body) (r_sel : B.select_body) =
  if e_sel.B.sel_distinct <> r_sel.B.sel_distinct then
    (* footnote 2: a DISTINCT subsumee can still be answered when the
       subsumer is a plain projection over a GROUP BY *)
    if e_sel.B.sel_distinct && not r_sel.B.sel_distinct then
      match match_distinct_vs_group_through ctx e_sel r_sel with
      | Some r -> Some r
      | None ->
          Mctx.reject ctx
            (Obs.Trace.Distinct_incompatible
               "the DISTINCT subsumee does not project the subsumer's \
                grouping set");
          None
    else begin
      Mctx.reject ctx
        (Obs.Trace.Distinct_incompatible
           "the subsumer is DISTINCT but the subsumee is not");
      None
    end
  else
    match pair_children ctx e_sel.B.sel_quants r_sel.B.sel_quants with
    | None ->
        Mctx.reject ctx Obs.Trace.Child_mismatch;
        None
    | Some asg ->
        if
          e_sel.B.sel_distinct
          && (asg.Mctx.rejoins <> [] || asg.Mctx.extras <> [])
        then begin
          Mctx.reject ctx
            (Obs.Trace.Duplicate_loss
               "rejoined or extra children under DISTINCT would change \
                duplicate multiplicities");
          None
        end
        else if not (extras_lossless ctx r_sel asg.Mctx.extras) then begin
          Mctx.reject ctx Obs.Trace.Extra_not_lossless;
          None
        end
        else begin
          let grouping_pairs =
            List.filter
              (fun (_, _, res) ->
                match res with
                | M.Comp levels -> M.comp_has_group levels
                | M.Exact _ -> false)
              asg.Mctx.pairs
          in
          match grouping_pairs with
          | [] -> select_select_flat ctx asg e_sel r_sel
          | [ _ ] when List.length asg.Mctx.pairs = 1 ->
              select_select_grouped ctx asg e_sel r_sel
          | _ ->
              Mctx.reject ctx
                (Obs.Trace.Unsupported
                   "more than one matched child carries a grouping \
                    compensation");
              None
        end

(* 4.1.1 and 4.2.3: no grouping in any child compensation. *)
and select_select_flat ctx asg (e_sel : B.select_body) (r_sel : B.select_body)
    =
  pattern ctx "4.1.1/4.2.3 SELECT compensation over matched children";
  let equiv =
    if !Config.equivalence_classes then
      Equiv.of_preds (List.map (E.map_col (fun q -> M.Rin q)) r_sel.B.sel_preds)
    else Equiv.of_equalities []
  in
  let r_outs =
    List.map (fun (n, e) -> (n, E.map_col (fun q -> M.Rin q) e)) r_sel.B.sel_outs
  in
  let extra_ids = List.map (fun q -> q.B.q_id) asg.Mctx.extras in
  let r_preds =
    List.map (E.map_col (fun q -> M.Rin q)) r_sel.B.sel_preds
    |> List.filter (fun p -> not (refs_quants extra_ids p))
  in
  let r_preds_canon = List.map (canon_tx equiv) r_preds in
  let e_preds_t =
    List.map (fun p -> (p, Translate.to_subsumer asg p)) e_sel.B.sel_preds
  in
  if List.exists (fun (_, t) -> t = None) e_preds_t then begin
    (match List.find_opt (fun (_, t) -> t = None) e_preds_t with
    | Some (p, _) -> Mctx.reject ctx (Obs.Trace.Pred_not_derivable (show_q p))
    | None -> ());
    None
  end
  else
    let e_preds_t = List.map (fun (_, t) -> Option.get t) e_preds_t in
    let cc_preds =
      List.concat_map
        (fun (rq, levels) -> lifted_comp_preds ~rq levels)
        (child_comp_levels asg)
    in
    let strong_canon = List.map (canon_tx equiv) (e_preds_t @ cc_preds) in
    if not (cond2 ctx r_sel asg ~r_preds_canon ~strong_canon) then begin
      Mctx.reject ctx Obs.Trace.Summary_pred_unmatched;
      None
    end
    else begin
      (* conditions 3 and 5: unmatched predicates must be derivable and go
         into the compensation *)
      let comp_preds = ref [] in
      let ok = ref true in
      List.iter
        (fun t ->
          if not (List.mem (canon_tx equiv t) r_preds_canon) then
            match Derive.scalar ~equiv ~r_outs t with
            | Some d -> comp_preds := !comp_preds @ [ d ]
            | None ->
                Mctx.reject ctx (Obs.Trace.Pred_not_derivable (show_tx t));
                ok := false)
        (e_preds_t @ cc_preds);
      if not !ok then None
      else begin
        (* condition 4, applied lazily (section 6: QCLs are created as a
           side effect of deriving the parent's expressions): output
           columns that cannot be derived are simply not exported by the
           compensation, so only parents that consume them fail *)
        let outs =
          List.filter_map
            (fun (n, e) ->
              match Translate.to_subsumer asg e with
              | None -> None
              | Some t ->
                  Option.map (fun d -> (n, d)) (Derive.scalar ~equiv ~r_outs t))
            e_sel.B.sel_outs
        in
        if outs = [] && e_sel.B.sel_outs <> [] then begin
          Mctx.reject ctx Obs.Trace.Output_not_derivable;
          None
        end
        else begin
          set_proof ctx
            (certify_select_flat ctx asg ~equiv ~r_outs ~r_preds_canon
               ~strong_canon ~comp_preds:!comp_preds r_sel);
          let rejoins =
            List.map (fun q -> { M.rc_quant = q }) asg.Mctx.rejoins
            @ List.concat_map
                (fun (_, levels) -> comp_rejoins levels)
                (child_comp_levels asg)
          in
          let pure_rename =
            rejoins = [] && !comp_preds = []
            && List.length outs = List.length e_sel.B.sel_outs
            && List.for_all
                 (fun (_, d) ->
                   match d with E.Col (M.Below _) -> true | _ -> false)
                 outs
          in
          if pure_rename then
            Some
              (M.Exact
                 (List.map
                    (fun (n, d) ->
                      match d with
                      | E.Col (M.Below m) -> (n, m)
                      | _ -> assert false)
                    outs))
          else
            Some
              (M.Comp
                 [
                   M.L_select
                     {
                       ls_rejoins = rejoins;
                       ls_preds = !comp_preds;
                       ls_outs = outs;
                     };
                 ])
        end
      end
    end

(* 4.2.4: a single matched child whose compensation contains grouping. The
   child compensation stack is pulled up (level-0 references rewired from
   subsumer-child outputs to subsumer outputs), topped by a SELECT for the
   subsumee's own predicates and outputs. *)
and select_select_grouped ctx asg (e_sel : B.select_body)
    (r_sel : B.select_body) =
  pattern ctx "4.2.4 SELECT over a grouping child compensation";
  match asg.Mctx.pairs with
  | [ (qe, rq, M.Comp levels) ] -> (
      let equiv =
        if !Config.equivalence_classes then
          Equiv.of_preds
            (List.map (E.map_col (fun q -> M.Rin q)) r_sel.B.sel_preds)
        else Equiv.of_equalities []
      in
      let r_outs =
        List.map
          (fun (n, e) -> (n, E.map_col (fun q -> M.Rin q) e))
          r_sel.B.sel_outs
      in
      let extra_ids = List.map (fun q -> q.B.q_id) asg.Mctx.extras in
      let r_preds =
        List.map (E.map_col (fun q -> M.Rin q)) r_sel.B.sel_preds
        |> List.filter (fun p -> not (refs_quants extra_ids p))
      in
      let r_preds_canon = List.map (canon_tx equiv) r_preds in
      let e_preds_t =
        List.map (fun p -> (p, Translate.to_subsumer asg p)) e_sel.B.sel_preds
      in
      if List.exists (fun (_, t) -> t = None) e_preds_t then begin
        (match List.find_opt (fun (_, t) -> t = None) e_preds_t with
        | Some (p, _) ->
            Mctx.reject ctx (Obs.Trace.Pred_not_derivable (show_q p))
        | None -> ());
        None
      end
      else
        let e_preds_t = List.map (fun (p, t) -> (p, Option.get t)) e_preds_t in
        let cc_preds = lifted_comp_preds ~rq levels in
        let strong_canon =
          List.map (fun (_, t) -> canon_tx equiv t) e_preds_t
          @ List.map (canon_tx equiv) cc_preds
        in
        if not (cond2 ctx r_sel asg ~r_preds_canon ~strong_canon) then begin
          Mctx.reject ctx Obs.Trace.Summary_pred_unmatched;
          None
        end
        else
          (* pull-up: rewire level 0 from subsumer-child outputs to subsumer
             outputs; every referenced column must be preserved (condition 5
             of 4.2.3, extended to grouping columns in 4.2.4) *)
          let r_out_name_of x =
            let target =
              canon_tx equiv (E.Col (M.Rin { B.quant = rq.B.q_id; col = x }))
            in
            List.find_map
              (fun (m, o) -> if canon_tx equiv o = target then Some m else None)
              r_outs
          in
          let rewire_expr e =
            E.subst_col
              (fun c ->
                match c with
                | M.Rejoin _ -> Some (E.Col c)
                | M.Below x ->
                    Option.map (fun m -> E.Col (M.Below m)) (r_out_name_of x))
              e
          in
          let rewire_level0 level =
            match level with
            | M.L_select { ls_rejoins; ls_preds; ls_outs } -> (
                let preds = List.map rewire_expr ls_preds in
                let outs =
                  List.map (fun (n, e) -> (n, rewire_expr e)) ls_outs
                in
                if
                  List.exists (fun p -> p = None) preds
                  || List.exists (fun (_, o) -> o = None) outs
                then None
                else
                  Some
                    (M.L_select
                       {
                         ls_rejoins;
                         ls_preds = List.filter_map (fun p -> p) preds;
                         ls_outs =
                           List.map (fun (n, o) -> (n, Option.get o)) outs;
                       }))
            | M.L_group { lg_grouping; lg_aggs } -> (
                let map_names cols =
                  let mapped = List.map r_out_name_of cols in
                  if List.exists (fun m -> m = None) mapped then None
                  else Some (List.filter_map (fun m -> m) mapped)
                in
                let grouping' =
                  match lg_grouping with
                  | B.Simple cols ->
                      Option.map (fun c -> B.Simple c) (map_names cols)
                  | B.Gsets sets ->
                      let sets' = List.map map_names sets in
                      if List.exists (fun s -> s = None) sets' then None
                      else Some (B.Gsets (List.filter_map (fun s -> s) sets'))
                in
                let aggs' =
                  List.map
                    (fun (n, agg, arg) ->
                      match arg with
                      | None -> Some (n, agg, None)
                      | Some a ->
                          Option.map (fun a -> (n, agg, Some a)) (rewire_expr a))
                    lg_aggs
                in
                match grouping' with
                | Some gpg when List.for_all (fun a -> a <> None) aggs' ->
                    Some
                      (M.L_group
                         {
                           lg_grouping = gpg;
                           lg_aggs = List.filter_map (fun a -> a) aggs';
                         })
                | _ -> None)
          in
          match levels with
          | [] -> None
          | level0 :: rest -> (
              match rewire_level0 level0 with
              | None ->
                  Mctx.reject ctx
                    (Obs.Trace.Unsupported
                       "the grouping child compensation references a column \
                        not preserved at the subsumer's output");
                  None
              | Some level0' ->
                  let to_cref e =
                    E.subst_col
                      (fun ({ B.quant; col } as qref) ->
                        if quant = qe.B.q_id then Some (E.Col (M.Below col))
                        else if
                          List.exists
                            (fun q -> q.B.q_id = quant)
                            asg.Mctx.rejoins
                        then Some (E.Col (M.Rejoin qref))
                        else None)
                      e
                  in
                  let top_preds =
                    List.filter_map
                      (fun (p, t) ->
                        if List.mem (canon_tx equiv t) r_preds_canon then None
                        else Some (to_cref p))
                      e_preds_t
                  in
                  let top_outs =
                    List.map (fun (n, e) -> (n, to_cref e)) e_sel.B.sel_outs
                  in
                  if
                    List.exists (fun p -> p = None) top_preds
                    || List.exists (fun (_, o) -> o = None) top_outs
                  then None
                  else begin
                    let top =
                      M.L_select
                        {
                          ls_rejoins =
                            List.map
                              (fun q -> { M.rc_quant = q })
                              asg.Mctx.rejoins;
                          ls_preds = List.filter_map (fun p -> p) top_preds;
                          ls_outs =
                            List.map (fun (n, o) -> (n, Option.get o)) top_outs;
                        }
                    in
                    set_proof ctx
                      (Prove.Unknown
                         "4.2.4 grouping pull-up rewrite not certified");
                    Some (M.Comp ((level0' :: rest) @ [ top ]))
                  end))
  | _ -> None

(* ---------------- GROUP BY / GROUP BY ---------------- *)

and match_group_group ctx (e_grp : B.group_body) (r_grp : B.group_body) =
  match match_boxes ctx e_grp.B.grp_quant.B.q_box r_grp.B.grp_quant.B.q_box with
  | None ->
      Mctx.reject ctx Obs.Trace.Child_mismatch;
      None
  | Some child_res ->
      let levels =
        match child_res with M.Exact _ -> [] | M.Comp levels -> levels
      in
      if not (M.comp_has_group levels) then begin
        pattern ctx "4.1.2/4.2.1 regroupable GROUP BY over matched child";
        (* 4.1.2 / 4.2.1 / 5.x: child compensation is at most a SELECT *)
        let pulled_preds =
          List.concat_map
            (function
              | M.L_select { ls_preds; _ } -> ls_preds | M.L_group _ -> [])
            levels
        in
        let rejoins = comp_rejoins levels in
        let keys =
          List.map
            (fun k -> (k, Translate.child_col child_res k))
            (B.grouping_union e_grp.B.grp_grouping)
        in
        let e_child = e_grp.B.grp_quant.B.q_box in
        let aggs =
          List.map
            (fun (n, { B.agg; arg }) ->
              match arg with
              | None -> Some (n, agg, None)
              | Some a -> (
                  match Translate.child_col child_res a with
                  | Some t -> Some (n, agg, Some t)
                  | None ->
                      (* rule (b), second sentence: COUNT(x) over a
                         non-nullable x equals COUNT-star even when x itself
                         is not preserved by the subsumer *)
                      if
                        agg.E.fn = E.Count
                        && (not agg.E.distinct)
                        && not
                             (Props.column_nullable ctx.Mctx.cat ctx.Mctx.qg
                                e_child a)
                      then
                        Some
                          (n, { E.fn = E.Count_star; distinct = false }, None)
                      else None))
            e_grp.B.grp_aggs
        in
        if List.exists (fun (_, t) -> t = None) keys then begin
          Mctx.reject ctx Obs.Trace.Grouping_not_translatable;
          None
        end
        else if List.exists (fun a -> a = None) aggs then begin
          Mctx.reject ctx Obs.Trace.Agg_not_preserved;
          None
        end
        else begin
          let res =
            match_group_spec ctx
              ~keys:(List.map (fun (k, t) -> (k, Option.get t)) keys)
              ~sets:(B.grouping_sets e_grp.B.grp_grouping)
              ~simple:
                (match e_grp.B.grp_grouping with
                | B.Simple _ -> true
                | B.Gsets _ -> false)
              ~aggs:(List.filter_map (fun a -> a) aggs)
              ~pulled_preds ~rejoins ~r_grp
          in
          (* Regrouping is exact whenever the child regions are provably
             equal and both groupings are plain (a cube slice synthesizes
             IS NULL predicates the certificate does not cover), so the
             child pair's certificate transfers to this pair. *)
          (match res with
          | None -> ()
          | Some _ ->
              let both_simple =
                (match e_grp.B.grp_grouping with
                | B.Simple _ -> true
                | B.Gsets _ -> false)
                &&
                match r_grp.B.grp_grouping with
                | B.Simple _ -> true
                | B.Gsets _ -> false
              in
              set_proof ctx
                (if not both_simple then
                   Prove.Unknown "grouping-sets (cube) rewrite not certified"
                 else
                   match
                     Hashtbl.find_opt ctx.Mctx.proofs
                       (e_grp.B.grp_quant.B.q_box, r_grp.B.grp_quant.B.q_box)
                   with
                   | Some p -> p
                   | None -> Prove.Unknown "child pair not certified"));
          res
        end
      end
      else match_group_nested ctx ~levels ~e_grp ~r_grp

(* 4.2.2: split the child compensation at its lowest GROUP BY level; match
   that level against the subsumer; stack the remaining levels and a
   transcription of the subsumee on top. *)
and match_group_nested ctx ~levels ~(e_grp : B.group_body)
    ~(r_grp : B.group_body) =
  pattern ctx "4.2.2 nested regroup through a grouping child compensation";
  let rec split below = function
    | [] -> None
    | M.L_group { lg_grouping; lg_aggs } :: above ->
        Some (List.rev below, lg_grouping, lg_aggs, above)
    | (M.L_select _ as l) :: above -> split (l :: below) above
  in
  match split [] levels with
  | None -> None
  | Some (below, low_grouping, low_aggs, above) -> (
      let expand e = Translate.through_comp below e in
      let keys =
        List.map
          (fun k -> (k, expand (E.Col (M.Below k))))
          (B.grouping_union low_grouping)
      in
      let aggs =
        List.map
          (fun (n, agg, arg) ->
            match arg with
            | None -> Some (n, agg, None)
            | Some a -> Option.map (fun t -> (n, agg, Some t)) (expand a))
          low_aggs
      in
      let pulled_preds =
        List.concat_map
          (function
            | M.L_select { ls_preds; _ } -> ls_preds | M.L_group _ -> [])
          below
      in
      if List.exists (fun (_, t) -> t = None) keys then begin
        Mctx.reject ctx Obs.Trace.Grouping_not_translatable;
        None
      end
      else if List.exists (fun a -> a = None) aggs then begin
        Mctx.reject ctx Obs.Trace.Agg_not_preserved;
        None
      end
      else
        match
          match_group_spec ctx
            ~keys:(List.map (fun (k, t) -> (k, Option.get t)) keys)
            ~sets:(B.grouping_sets low_grouping)
            ~simple:(match low_grouping with B.Simple _ -> true | _ -> false)
            ~aggs:(List.filter_map (fun a -> a) aggs)
            ~pulled_preds ~rejoins:(comp_rejoins below) ~r_grp
        with
        | None -> None
        | Some intermediate ->
            let inter_levels =
              match intermediate with
              | M.Comp ls -> ls
              | M.Exact cmap ->
                  [
                    M.L_select
                      {
                        ls_rejoins = [];
                        ls_preds = [];
                        ls_outs =
                          List.map (fun (n, m) -> (n, E.Col (M.Below m))) cmap;
                      };
                  ]
            in
            let final_group =
              M.L_group
                {
                  lg_grouping = e_grp.B.grp_grouping;
                  lg_aggs =
                    List.map
                      (fun (n, { B.agg; arg }) ->
                        (n, agg, Option.map (fun a -> E.Col (M.Below a)) arg))
                      e_grp.B.grp_aggs;
                }
            in
            set_proof ctx
              (Prove.Unknown "4.2.2 nested regroup not certified");
            Some (M.Comp (inter_levels @ above @ [ final_group ])))

(* The engine room for 4.1.2 / 4.2.1 / 5.1 / 5.2. The subsumee grouping
   spec (keys, sets, aggs) is in subsumer-child output space: key and
   aggregate-argument expressions are over [Below] of the subsumer-child's
   outputs plus [Rejoin] references. *)
and match_group_spec ctx ~keys ~sets ~simple ~aggs ~pulled_preds ~rejoins
    ~(r_grp : B.group_body) =
  let equiv =
    if !Config.equivalence_classes then Equiv.of_preds pulled_preds
    else Equiv.of_equalities []
  in
  let r_sets = B.grouping_sets r_grp.B.grp_grouping in
  let r_union = B.grouping_union r_grp.B.grp_grouping in
  let r_is_cube =
    match r_grp.B.grp_grouping with B.Gsets _ -> true | B.Simple _ -> false
  in
  let r_child = r_grp.B.grp_quant.B.q_box in
  let r_aggs =
    List.map (fun (n, { B.agg; arg }) -> (n, agg, arg)) r_grp.B.grp_aggs
  in
  let arg_nullable c =
    Props.column_nullable ctx.Mctx.cat ctx.Mctx.ag r_child c
  in
  (* 1:N rejoin test (4.2.1): every rejoined child must be joined on a
     unique key of its base table *)
  let rejoins_one_sided () =
    List.for_all
      (fun (rc : M.rejoin_child) ->
        let qid = rc.M.rc_quant.B.q_id in
        let join_cols =
          List.filter_map
            (fun p ->
              match p with
              | E.Binop ("=", E.Col (M.Rejoin a), E.Col (M.Below _))
                when a.B.quant = qid ->
                  Some a.B.col
              | E.Binop ("=", E.Col (M.Below _), E.Col (M.Rejoin a))
                when a.B.quant = qid ->
                  Some a.B.col
              | _ -> None)
            pulled_preds
        in
        join_cols <> []
        && Props.cols_are_key ctx.Mctx.cat ctx.Mctx.qg rc.M.rc_quant.B.q_box
             join_cols)
      rejoins
  in
  let slice_conj cuboid =
    if not r_is_cube then None
    else
      List.fold_left
        (fun acc col ->
          let t = E.Is_null (E.Col (M.Below col), not (col_mem col cuboid)) in
          match acc with
          | None -> Some t
          | Some a -> Some (E.Binop ("AND", a, t)))
        None r_union
  in
  let restrict cuboid e = Derive.restrict_to_cols equiv cuboid e in
  (* exact-cuboid attempt: the selected keys, restricted to the cuboid, must
     cover it column-for-column; pulled predicates must restrict; aggregates
     must match subsumer aggregates directly *)
  let try_exact_cuboid sel_key_names cuboid =
    let sel_keys =
      List.filter (fun (k, _) -> col_mem k sel_key_names) keys
    in
    (* rejoin-valued keys count as cuboid columns when the pulled join
       predicates make them equivalent to one (Figure 8's lid = flid) *)
    let to_below t =
      E.map_col
        (fun c ->
          match c with
          | M.Below _ -> c
          | M.Rejoin _ -> (
              match
                List.find_opt
                  (fun m ->
                    match m with
                    | M.Below y -> col_mem y cuboid
                    | M.Rejoin _ -> false)
                  (Equiv.members equiv c)
              with
              | Some b -> b
              | None -> c))
        t
    in
    let rkeys =
      List.map (fun (k, t) -> (k, restrict cuboid (to_below t))) sel_keys
    in
    let rpreds = List.map (restrict cuboid) pulled_preds in
    if
      List.exists (fun (_, t) -> t = None) rkeys
      || List.exists (fun p -> p = None) rpreds
    then None
    else
      let rkeys = List.map (fun (k, t) -> (k, Option.get t)) rkeys in
      let key_cols =
        List.map
          (fun (k, t) ->
            match t with E.Col (M.Below x) -> Some (k, x) | _ -> None)
          rkeys
      in
      if List.exists (fun c -> c = None) key_cols then None
      else
        let key_cols = List.filter_map (fun c -> c) key_cols in
        let covers =
          List.sort_uniq compare (List.map (fun (_, x) -> norm x) key_cols)
          = List.sort_uniq compare (List.map norm cuboid)
        in
        if not covers then None
        else if rejoins <> [] && not (rejoins_one_sided ()) then None
        else
          let env =
            {
              Derive.ge_equiv = equiv;
              ge_cuboid = cuboid;
              ge_r_aggs = r_aggs;
              ge_arg_nullable = arg_nullable;
              ge_ekey_cols = Some (List.map snd key_cols);
            }
          in
          let direct =
            List.map
              (fun (n, agg, arg) -> (n, Derive.agg_direct env agg arg))
              aggs
          in
          if List.exists (fun (_, d) -> d = None) direct then None
          else
            Some
              ( key_cols,
                List.filter_map (fun p -> p) rpreds,
                List.map (fun (n, d) -> (n, Option.get d)) direct )
  in
  let key_out k =
    (* prefer the untouched translated key when all of its references
       survive at the subsumer's output (keeps rejoin-side names, Fig. 8) *)
    let orig = List.assoc k keys in
    let usable =
      List.for_all
        (fun c ->
          match c with
          | M.Below x -> col_mem x r_union
          | M.Rejoin _ -> true)
        (E.cols orig)
    in
    if usable then Some orig else None
  in
  if simple then begin
    let exact_hit =
      List.find_map
        (fun cuboid ->
          Option.map
            (fun x -> (cuboid, x))
            (try_exact_cuboid (List.map fst keys) cuboid))
        r_sets
    in
    match exact_hit with
    | Some (cuboid, (key_cols, preds', direct)) ->
        let all_preds = Option.to_list (slice_conj cuboid) @ preds' in
        let outs =
          List.map
            (fun (k, x) ->
              match key_out k with
              | Some orig -> (k, orig)
              | None -> (k, E.Col (M.Below x)))
            key_cols
          @ List.map (fun (n, m) -> (n, E.Col (M.Below m))) direct
        in
        if
          rejoins = [] && all_preds = []
          && List.for_all
               (fun (_, d) ->
                 match d with E.Col (M.Below _) -> true | _ -> false)
               outs
        then
          Some
            (M.Exact
               (List.map
                  (fun (n, d) ->
                    match d with
                    | E.Col (M.Below m) -> (n, m)
                    | _ -> assert false)
                  outs))
        else
          Some
            (M.Comp
               [
                 M.L_select
                   { ls_rejoins = rejoins; ls_preds = all_preds; ls_outs = outs };
               ])
    | None ->
        regroup_compensation ctx ~keys
          ~regroup_grouping:(B.Simple (List.map fst keys))
          ~aggs ~equiv ~r_sets ~r_aggs ~arg_nullable ~rejoins ~pulled_preds
          ~slice_conj ~restrict
  end
  else begin
    (* 5.2: cube query against cube AST *)
    let per_set =
      List.map
        (fun set ->
          List.find_map
            (fun cuboid ->
              Option.map (fun x -> (cuboid, x)) (try_exact_cuboid set cuboid))
            r_sets)
        sets
    in
    let all_exact = List.for_all (fun x -> x <> None) per_set in
    if all_exact && rejoins = [] then begin
      let hits = List.filter_map (fun x -> x) per_set in
      (* key -> subsumer column mappings and aggregate mappings must agree
         across the chosen cuboids, and pulled predicates must restrict
         identically *)
      let merged_keys = Hashtbl.create 8 in
      let consistent = ref true in
      List.iter
        (fun (_, (key_cols, _, _)) ->
          List.iter
            (fun (k, x) ->
              match Hashtbl.find_opt merged_keys (norm k) with
              | None -> Hashtbl.replace merged_keys (norm k) x
              | Some x' -> if norm x <> norm x' then consistent := false)
            key_cols)
        hits;
      let _, (_, preds0, direct0) = ((), List.hd hits |> snd) in
      List.iter
        (fun (_, (_, p, d)) ->
          if p <> preds0 || d <> direct0 then consistent := false)
        hits;
      if not !consistent then None
      else
        let slices = List.filter_map (fun (c, _) -> slice_conj c) hits in
        let disj =
          match slices with
          | [] -> []
          | first :: rest ->
              [ List.fold_left (fun acc s -> E.Binop ("OR", acc, s)) first rest ]
        in
        let outs =
          List.map
            (fun (k, _) ->
              match Hashtbl.find_opt merged_keys (norm k) with
              | Some x -> (k, E.Col (M.Below x))
              | None -> (k, E.Const V.Null))
            keys
          @ List.map (fun (n, m) -> (n, E.Col (M.Below m))) direct0
        in
        Some
          (M.Comp
             [
               M.L_select
                 { ls_rejoins = []; ls_preds = disj @ preds0; ls_outs = outs };
             ])
    end
    else
      regroup_compensation ctx ~keys ~regroup_grouping:(B.Gsets sets) ~aggs
        ~equiv ~r_sets ~r_aggs ~arg_nullable ~rejoins ~pulled_preds ~slice_conj
        ~restrict
  end

(* The [select; group; select] compensation for the regrouping cases of
   4.1.2 / 4.2.1 / 5.1 / 5.2: slice and filter the smallest usable cuboid,
   regroup by the subsumee's grouping, re-derive the aggregates. *)
and regroup_compensation ctx ~keys ~regroup_grouping ~aggs ~equiv ~r_sets
    ~r_aggs ~arg_nullable ~rejoins ~pulled_preds ~slice_conj ~restrict =
  pattern ctx "5.1/5.2 regroup from a covering cuboid";
  let candidates =
    List.filter_map
      (fun cuboid ->
        let rkeys = List.map (fun (k, t) -> (k, restrict cuboid t)) keys in
        let rpreds = List.map (restrict cuboid) pulled_preds in
        if
          List.exists (fun (_, t) -> t = None) rkeys
          || List.exists (fun p -> p = None) rpreds
        then None
        else
          let rkeys = List.map (fun (k, t) -> (k, Option.get t)) rkeys in
          let key_cols =
            List.filter_map
              (fun (_, t) ->
                match t with E.Col (M.Below x) -> Some x | _ -> None)
              rkeys
          in
          (* rule f's exactness shortcut (COUNT(DISTINCT x) as plain
             COUNT(y)) presumes the compensation groups by ALL the keys;
             under a grouping-sets regroup the coarser cuboids group by
             fewer, so only the general DISTINCT form is sound there *)
          let ekey_cols =
            match regroup_grouping with
            | B.Gsets _ -> None
            | B.Simple _ ->
                if List.length key_cols = List.length rkeys then Some key_cols
                else None
          in
          let env =
            {
              Derive.ge_equiv = equiv;
              ge_cuboid = cuboid;
              ge_r_aggs = r_aggs;
              ge_arg_nullable = arg_nullable;
              ge_ekey_cols = ekey_cols;
            }
          in
          let derived =
            List.map
              (fun (n, agg, arg) -> (n, Derive.agg_regroup env agg arg))
              aggs
          in
          if List.exists (fun (_, d) -> d = None) derived then begin
            (match List.find_opt (fun (_, d) -> d = None) derived with
            | Some (n, _) ->
                Mctx.reject ctx (Obs.Trace.Agg_rule_inapplicable n)
            | None -> ());
            None
          end
          else
            Some
              ( cuboid,
                rkeys,
                List.filter_map (fun p -> p) rpreds,
                List.map (fun (n, d) -> (n, Option.get d)) derived ))
      r_sets
  in
  let smallest =
    if !Config.smallest_cuboid then
      List.sort
        (fun (a, _, _, _) (b, _, _, _) ->
          compare (List.length a) (List.length b))
        candidates
    else candidates
  in
  match smallest with
  | [] ->
      Mctx.reject ctx Obs.Trace.No_covering_cuboid;
      None
  | (cuboid, rkeys, preds', derived) :: _ ->
      let key_names = List.map fst rkeys in
      (* passthroughs of subsumer outputs consumed by the derived
         aggregates, renamed on collision with key names *)
      let needed_below =
        List.sort_uniq compare
          (List.concat_map
             (fun (_, d) ->
               List.filter_map
                 (fun c ->
                   match c with M.Below x -> Some x | M.Rejoin _ -> None)
                 (E.cols d))
             derived)
      in
      let pass_name =
        List.fold_left
          (fun acc x ->
            let taken = key_names @ List.map snd acc in
            let n =
              if List.exists (fun t -> norm t = norm x) taken then
                let rec fresh i =
                  let cand = Printf.sprintf "%s_p%d" x i in
                  if List.exists (fun t -> norm t = norm cand) taken then
                    fresh (i + 1)
                  else cand
                in
                fresh 1
              else x
            in
            acc @ [ (x, n) ])
          [] needed_below
      in
      let l0_outs =
        rkeys @ List.map (fun (x, n) -> (n, E.Col (M.Below x))) pass_name
      in
      let l0 =
        M.L_select
          {
            ls_rejoins = rejoins;
            ls_preds = Option.to_list (slice_conj cuboid) @ preds';
            ls_outs = l0_outs;
          }
      in
      let rebase e =
        E.map_col
          (fun c ->
            match c with
            | M.Below x -> (
                match
                  List.find_opt (fun (y, _) -> norm y = norm x) pass_name
                with
                | Some (_, n) -> M.Below n
                | None -> M.Below x)
            | M.Rejoin r -> M.Rejoin r)
          e
      in
      let l1_aggs = ref [] in
      let rec extract_aggs e =
        match e with
        | E.Agg (agg, arg) -> (
            let arg' = Option.map rebase arg in
            let key = (agg, Option.map E.normalize arg') in
            match List.find_opt (fun (_, k, _) -> k = key) !l1_aggs with
            | Some (n, _, _) -> E.Col (M.Below n)
            | None ->
                let n = Printf.sprintf "agg_c%d" (List.length !l1_aggs + 1) in
                l1_aggs := !l1_aggs @ [ (n, key, (agg, arg')) ];
                E.Col (M.Below n))
        | E.Const v -> E.Const v
        | E.Col c -> E.Col c
        | e -> E.with_children e (List.map extract_aggs (E.children e))
      in
      let top_exprs = List.map (fun (n, d) -> (n, extract_aggs d)) derived in
      let l1 =
        M.L_group
          {
            lg_grouping = regroup_grouping;
            lg_aggs =
              List.map (fun (n, _, (agg, arg)) -> (n, agg, arg)) !l1_aggs;
          }
      in
      let l2_outs =
        List.map (fun (k, _) -> (k, E.Col (M.Below k))) keys @ top_exprs
      in
      let l2 =
        M.L_select { ls_rejoins = []; ls_preds = []; ls_outs = l2_outs }
      in
      Some (M.Comp [ l0; l1; l2 ])

(* ------------------------------------------------------------------ *)
(* Footnote 2 extension: SELECT DISTINCT vs. GROUP BY cross-matching    *)
(* ------------------------------------------------------------------ *)

(* SELECT DISTINCT subsumee against the usual AST shape: a plain rename
   SELECT over a GROUP BY. Match against the GROUP BY and rewire the
   compensation through the subsumer's output names. *)
and match_distinct_vs_group_through ctx (e_sel : B.select_body)
    (r_sel : B.select_body) =
  match r_sel.B.sel_quants with
  | [ rq ]
    when rq.B.q_kind = B.Foreach
         && r_sel.B.sel_preds = []
         && not r_sel.B.sel_distinct -> (
      match (G.box ctx.Mctx.ag rq.B.q_box).B.body with
      | B.Group r_grp -> (
          (* subsumer outputs must be pure renames of group columns *)
          let rename =
            List.filter_map
              (fun (n, e) ->
                match e with
                | E.Col { B.col; _ } -> Some (col, n)
                | _ -> None)
              r_sel.B.sel_outs
          in
          if List.length rename <> List.length r_sel.B.sel_outs then None
          else
            match match_distinct_vs_group ctx e_sel r_grp with
            | Some (M.Comp levels) ->
                let rewire e =
                  E.subst_col
                    (fun c ->
                      match c with
                      | M.Rejoin _ -> Some (E.Col c)
                      | M.Below g ->
                          List.find_map
                            (fun (src, out) ->
                              if norm src = norm g then
                                Some (E.Col (M.Below out))
                              else None)
                            rename)
                    e
                in
                let rewire_level = function
                  | M.L_select { ls_rejoins; ls_preds; ls_outs } ->
                      let preds = List.map rewire ls_preds in
                      let outs =
                        List.map (fun (n, e) -> (n, rewire e)) ls_outs
                      in
                      if
                        List.exists (fun p -> p = None) preds
                        || List.exists (fun (_, o) -> o = None) outs
                      then None
                      else
                        Some
                          (M.L_select
                             {
                               ls_rejoins;
                               ls_preds = List.filter_map (fun p -> p) preds;
                               ls_outs =
                                 List.map (fun (n, o) -> (n, Option.get o)) outs;
                             })
                  | M.L_group _ -> None
                in
                let levels' = List.map rewire_level levels in
                if List.exists (fun l -> l = None) levels' then None
                else Some (M.Comp (List.filter_map (fun l -> l) levels'))
            | other -> other)
      | _ -> None)
  | _ -> None

(* SELECT DISTINCT k1..kn matches GROUP BY k1..kn: the distinct tuples
   are exactly the groups. The DISTINCT select merges what the subsumer
   splits into a lower SELECT and a GROUP BY, so the select-level match
   runs against the grouping's child; its result must project onto the
   full grouping set, with any residual predicates confined to grouping
   columns. Rejoins are rejected (re-introduced duplicates could not be
   collapsed again). *)
and match_distinct_vs_group ctx (e_sel : B.select_body) (r_grp : B.group_body)
    =
  pattern ctx "footnote-2 SELECT DISTINCT vs GROUP BY";
  match r_grp.B.grp_grouping with
  | B.Gsets _ -> None
  | B.Simple r_keys -> (
      match (G.box ctx.Mctx.ag r_grp.B.grp_quant.B.q_box).B.body with
      | B.Select r_child_sel -> (
          let as_projection outs_preds =
            let outs, preds = outs_preds in
            let cols =
              List.map
                (fun (n, e) ->
                  match e with
                  | E.Col (M.Below m) when col_mem m r_keys -> Some (n, m)
                  | _ -> None)
                outs
            in
            if List.exists (fun c -> c = None) cols then None
            else
              let cols = List.filter_map (fun c -> c) cols in
              let covering =
                List.sort_uniq compare (List.map (fun (_, m) -> norm m) cols)
                = List.sort_uniq compare (List.map norm r_keys)
              in
              let preds_ok =
                List.for_all
                  (fun p ->
                    List.for_all
                      (fun c ->
                        match c with
                        | M.Below m -> col_mem m r_keys
                        | M.Rejoin _ -> false)
                      (E.cols p))
                  preds
              in
              if covering && preds_ok then begin
                (* Override whatever the inner select-level match deposited:
                   the DISTINCT/GROUP BY duplicate-collapse step is not
                   modelled by the prover's region certificates. *)
                set_proof ctx
                  (Prove.Unknown "DISTINCT cross-match not certified");
                Some
                  (M.Comp
                     [
                       M.L_select
                         {
                           ls_rejoins = [];
                           ls_preds = preds;
                           ls_outs =
                             List.map
                               (fun (n, m) -> (n, E.Col (M.Below m)))
                               cols;
                         };
                     ])
              end
              else begin
                Mctx.reject ctx
                  (Obs.Trace.Distinct_incompatible
                     "the DISTINCT projection does not cover the summary's \
                      grouping set");
                None
              end
          in
          match
            match_select_select ctx
              { e_sel with B.sel_distinct = false }
              r_child_sel
          with
          | Some (M.Exact cmap) ->
              as_projection
                (List.map (fun (n, m) -> (n, E.Col (M.Below m))) cmap, [])
          | Some (M.Comp [ M.L_select { ls_rejoins = []; ls_preds; ls_outs } ])
            ->
              as_projection (ls_outs, ls_preds)
          | _ -> None)
      | _ -> None)

(* GROUP BY k1..kn with no aggregates matches SELECT DISTINCT k1..kn: the
   groups are exactly the distinct tuples. The subsumee's child must match
   the subsumer as if the latter were not DISTINCT (duplicates are about to
   be discarded by the grouping anyway). *)
and match_group_vs_distinct ctx (e_grp : B.group_body) (r_sel : B.select_body)
    =
  pattern ctx "footnote-2 GROUP BY vs SELECT DISTINCT";
  if e_grp.B.grp_aggs <> [] then None
  else
    match e_grp.B.grp_grouping with
    | B.Gsets _ -> None
    | B.Simple e_keys -> (
        match (G.box ctx.Mctx.qg e_grp.B.grp_quant.B.q_box).B.body with
        | B.Select ce_sel -> (
            match
              match_select_select ctx ce_sel
                { r_sel with B.sel_distinct = ce_sel.B.sel_distinct }
            with
            | Some (M.Exact cmap) ->
                let mapped =
                  List.map
                    (fun k ->
                      List.find_map
                        (fun (a, b) -> if norm a = norm k then Some (k, b) else None)
                        cmap)
                    e_keys
                in
                if List.exists (fun m -> m = None) mapped then None
                else
                  let mapped = List.filter_map (fun m -> m) mapped in
                  (* the grouping keys must cover the subsumer's whole
                     output (otherwise the projection re-introduces
                     duplicate tuples the subsumee would have collapsed) *)
                  let covered =
                    List.sort_uniq compare
                      (List.map (fun (_, m) -> norm m) mapped)
                    = List.sort_uniq compare
                        (List.map (fun (n, _) -> norm n) (List.map (fun (n, e) -> (n, e)) r_sel.B.sel_outs))
                  in
                  if not covered then begin
                    Mctx.reject ctx
                      (Obs.Trace.Duplicate_loss
                         "the grouping keys do not cover the summary's whole \
                          output (the projection would re-introduce \
                          duplicates)");
                    None
                  end
                  else begin
                    set_proof ctx
                      (Prove.Unknown "DISTINCT cross-match not certified");
                    Some
                      (M.Comp
                         [
                           M.L_select
                             {
                               ls_rejoins = [];
                               ls_preds = [];
                               ls_outs =
                                 List.map
                                   (fun (k, m) -> (k, E.Col (M.Below m)))
                                   mapped;
                             };
                         ])
                  end
            | _ -> None)
        | _ -> None)
