(* The match function (paper sections 3, 4 and 5).

   [match_boxes ctx e r] decides whether subsumee box [e] (query graph)
   matches subsumer box [r] (AST graph) and, if so, returns the
   compensation with its static certificate. The function is memoized per
   (e, r) pair and recurses into child pairs, which realizes the
   navigator's bottom-up discipline: by the time a pair is judged, all
   child pair-wise combinations have been judged, and a pattern reads a
   child pair's certificate from the answer it recursed into.

   Pattern coverage:
   - base tables                                 (leaf seeding)
   - SELECT/SELECT, exact child matches          (4.1.1)
   - SELECT/SELECT, SELECT-only child comp       (4.2.3)
   - SELECT/SELECT, grouping child comp          (4.2.4)
   - GROUP-BY/GROUP-BY, exact child matches      (4.1.2)
   - GROUP-BY/GROUP-BY, SELECT-only child comp   (4.2.1)
   - GROUP-BY/GROUP-BY, GROUP-BY child comp      (4.2.2, recursive)
   - simple or cube query vs. cube AST           (5.1, 5.2)

   SELECT DISTINCT and UNION reach the matcher as key-only GROUP BY boxes
   (Qgm.Builder), so footnote 2's DISTINCT/GROUP BY cases are 4.1.2/4.2.

   Deliberate rejections, documented in DESIGN.md: correlated queries
   (excluded upstream), outer joins, ambiguous self-join pairings (paper
   footnote 3). *)

module E = Qgm.Expr
module B = Qgm.Box
module G = Qgm.Graph
module M = Mtypes
module V = Data.Value

let canon_tx equiv e = E.normalize (Equiv.canon equiv e)

let show_tx e = E.to_string (Format.asprintf "%a" M.pp_txref) e

let show_q e =
  E.to_string (fun { B.quant; col } -> Printf.sprintf "q%d.%s" quant col) e

(* Every element, or [None] when one is missing. *)
let all_some l =
  if List.exists Option.is_none l then None else Some (List.map Option.get l)

(* [f] applied to the value of a named pair, keeping the name. *)
let named f (n, x) = Option.map (fun y -> (n, y)) (f x)

let is_simple = function B.Simple _ -> true | B.Gsets _ -> false
let below_col = function E.Col (M.Below m) -> Some m | _ -> None

(* Column-equivalence classes of [preds], unless the ablation turns them
   off. *)
let equiv_of (ctx : Mctx.t) preds =
  if ctx.Mctx.config.Config.equivalence_classes then Equiv.of_preds preds
  else Equiv.of_equalities []

(* ------------------------------------------------------------------ *)
(* Pure helpers (no recursion into match_boxes)                        *)
(* ------------------------------------------------------------------ *)

let child_comp_levels (asg : Mctx.assignment) =
  List.concat_map
    (fun (_, rq, (res, _)) ->
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

let comp_preds levels =
  List.concat_map
    (function M.L_select { ls_preds; _ } -> ls_preds | M.L_group _ -> [])
    levels

(* One SELECT compensation over the subsumer, or [Exact] when it only
   renames subsumer columns: every subsumee output derived ([complete]), no
   rejoin, no predicate, every output a bare subsumer column. *)
let select_comp ~complete ~rejoins ~preds outs =
  if
    complete && rejoins = [] && preds = []
    && List.for_all (fun (_, d) -> Option.is_some (below_col d)) outs
  then M.Exact (List.map (fun (n, d) -> (n, Option.get (below_col d))) outs)
  else
    M.Comp
      [ M.L_select { ls_rejoins = rejoins; ls_preds = preds; ls_outs = outs } ]

let refs_quants quant_ids p =
  List.exists
    (fun c ->
      match c with
      | M.Rin { B.quant; _ } -> List.mem quant quant_ids
      | M.Rj _ -> false)
    (E.cols p)

(* Keys and pulled predicates confined to a cuboid's grouping columns
   (section 5), or [None] when one of them reads a column outside it. *)
let restrict_to_cuboid equiv cuboid keys preds =
  let restrict = Derive.restrict_to_cols equiv cuboid in
  let rkeys = List.map (named restrict) keys in
  let rpreds = List.map restrict preds in
  match (all_some rkeys, all_some rpreds) with
  | Some rkeys, Some rpreds -> Some (rkeys, rpreds)
  | _ -> None

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
  let foreach = List.filter (fun q -> q.B.q_kind <> B.Scalar) extras in
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
                all_some
                  (List.map
                     (fun p ->
                       match p with
                       | E.Binop ("=", E.Col a, E.Col b) ->
                           if a.B.quant = x.B.q_id && b.B.quant <> x.B.q_id
                           then Some (a.B.col, b)
                           else if
                             b.B.quant = x.B.q_id && a.B.quant <> x.B.q_id
                           then Some (b.B.col, a)
                           else None
                       | _ -> None)
                     touching)
              in
              match pairs with
              | None | Some [] -> None
              | Some pairs -> (
                  match
                    List.sort_uniq compare
                      (List.map (fun (_, b) -> b.B.quant) pairs)
                  with
                  | [ fq ] -> (
                      match
                        Option.bind (quant_box fq) (fun q ->
                            Props.base_table_of ctx.Mctx.ag q.B.q_box)
                      with
                      | Some fk_table
                        when Catalog.ri_holds ctx.Mctx.cat
                               ~from_table:fk_table
                               ~from_cols:
                                 (List.map (fun (_, b) -> b.B.col) pairs)
                               ~to_table:extra_table
                               ~to_cols:(List.map fst pairs) ->
                          Some rest
                      | _ -> None)
                  | _ -> None))
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
   match.calls. Tests and the bench read its delta to prove that a plan
   served from a warm cache performs no matching work at all. *)
let m_calls = Obs.Metrics.counter "match.calls"
let m_memo_hits = Obs.Metrics.counter "match.memo_hits"
let m_accepts = Obs.Metrics.counter "match.accepts"

let res_outcome = function
  | Some (M.Exact _, _) -> Obs.Trace.Accepted "exact"
  | Some (M.Comp _, _) -> Obs.Trace.Accepted "compensated"
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
      || ctx.Mctx.config.Config.predicate_subsumption
         && Prove.entails ~ty (Lazy.force st) pr)
    r_preds_canon

(* The SELECT/SELECT prelude of 4.1.1/4.2.3 and 4.2.4, in subsumer-input
   space: the subsumer's equivalence classes and outputs, canonical forms
   of its predicates that touch no (lossless) extra child, and the query
   predicates translated. [tx_preds] adds the child compensations' lifted
   predicates to the translated query predicates; [strong_canon] is their
   canonical form. [None], with the reason traced, when a query predicate
   does not translate or condition 2 fails. *)
type select_prelude = {
  equiv : M.txref Equiv.t;
  r_outs : (string * M.txref E.t) list;
  r_preds_canon : M.txref E.t list;
  e_preds_t : (B.qref E.t * M.txref E.t) list;
  tx_preds : M.txref E.t list;
  strong_canon : M.txref E.t list;
}

let select_prelude ctx asg (e_sel : B.select_body) (r_sel : B.select_body) =
  let r_preds = List.map (E.map_col (fun q -> M.Rin q)) r_sel.B.sel_preds in
  let equiv = equiv_of ctx r_preds in
  let r_outs =
    List.map (fun (n, e) -> (n, E.map_col (fun q -> M.Rin q) e)) r_sel.B.sel_outs
  in
  let extra_ids = List.map (fun q -> q.B.q_id) asg.Mctx.extras in
  let r_preds_canon =
    List.filter_map
      (fun p ->
        if refs_quants extra_ids p then None else Some (canon_tx equiv p))
      r_preds
  in
  let e_preds_t =
    List.map (fun p -> (p, Translate.to_subsumer asg p)) e_sel.B.sel_preds
  in
  match List.find_opt (fun (_, t) -> Option.is_none t) e_preds_t with
  | Some (p, _) ->
      Mctx.reject ctx (Obs.Trace.Pred_not_derivable (show_q p));
      None
  | None ->
      let e_preds_t = List.map (fun (p, t) -> (p, Option.get t)) e_preds_t in
      let tx_preds =
        List.map snd e_preds_t
        @ List.concat_map
            (fun (rq, levels) -> lifted_comp_preds ~rq levels)
            (child_comp_levels asg)
      in
      let strong_canon = List.map (canon_tx equiv) tx_preds in
      if not (cond2 ctx r_sel asg ~r_preds_canon ~strong_canon) then begin
        Mctx.reject ctx Obs.Trace.Summary_pred_unmatched;
        None
      end
      else
        Some
          { equiv; r_outs; r_preds_canon; e_preds_t; tx_preds; strong_canon }

(* Region-equality certificate for a flat SELECT/SELECT match.  Given all
   child pairs certified, [summary AND compensation] selects exactly the
   query's rows over the shared child space iff (1) every summary predicate
   is entailed by the query side, (2) every compensation predicate is
   entailed by the query side, and (3) every query-side predicate is
   entailed by summary + compensation.  Anything short of three [Proved]s
   leaves the match usable but uncertified (runtime verification applies). *)
let certify_select_flat ctx asg
    { equiv; r_outs; r_preds_canon; strong_canon; _ } ~comp_preds
    (r_sel : B.select_body) =
  if Govern.Budget.deadline_spent ctx.Mctx.budget then
    Prove.Unknown "planning deadline spent"
  else
    let child =
      List.fold_left
        (fun acc (_, _, (_, proof)) -> Prove.both acc proof)
        Prove.Proved asg.Mctx.pairs
    in
    match child with
    | Prove.Unknown _ -> child
    | Prove.Proved -> (
        (* compensation predicates live over the summary's outputs (Below)
           and rejoin columns; map them back into the shared txref space to
           compare regions *)
        let back p =
          E.subst_col
            (function
              | M.Below n -> List.assoc_opt n r_outs
              | M.Rejoin r -> Some (E.Col (M.Rj r)))
            p
        in
        match all_some (List.map back comp_preds) with
        | None ->
            Prove.Unknown
              "a compensation predicate does not map back to summary inputs"
        | Some comp_tx ->
            let comp_canon = List.map (canon_tx equiv) comp_tx in
            let ty = Prove.key_ty ~col:(txref_ty ctx r_sel asg) in
            Prove.all_proved
              [
                Prove.subsumed ~ty ~weak:r_preds_canon ~strong:strong_canon;
                Prove.subsumed ~ty ~weak:comp_canon ~strong:strong_canon;
                Prove.subsumed ~ty ~weak:strong_canon
                  ~strong:(r_preds_canon @ comp_canon);
              ])

(* A pattern's answer: its match with its certificate, tracing the typed
   reason when the proof came back [Unknown]. *)
let certified ctx res proof =
  (match proof with
  | Prove.Proved -> ()
  | Prove.Unknown w ->
      Obs.Trace.event ctx.Mctx.trace ~kind:"prove"
        ~label:(Obs.Trace.describe (Obs.Trace.Prove_unknown w)));
  Some (res, proof)

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
  Obs.Metrics.incr m_calls;
  Guard.Fault.hit Guard.Fault.Match;
  Guard.Fault.maybe_delay ();
  Govern.Budget.tick_match ctx.Mctx.budget;
  match Hashtbl.find_opt ctx.Mctx.memo (e_id, r_id) with
  | Some answer ->
      Obs.Metrics.incr m_memo_hits;
      answer
  | None ->
      Hashtbl.replace ctx.Mctx.memo (e_id, r_id) None;
      let e_box = G.box ctx.Mctx.qg e_id in
      let r_box = G.box ctx.Mctx.ag r_id in
      let answer =
        match (e_box.B.body, r_box.B.body) with
        | B.Base { bt_table = t1; _ }, B.Base { bt_table = t2; bt_cols } ->
            (* same base relation verbatim: trivially certified *)
            if t1 = t2 then
              Some (M.Exact (List.map (fun c -> (c, c)) bt_cols), Prove.Proved)
            else None
        | B.Select e_sel, B.Select r_sel ->
            pair_span ctx e_id r_id "SELECT/SELECT" (fun () ->
                match_select_select ctx e_sel r_sel)
        | B.Group e_grp, B.Group r_grp ->
            pair_span ctx e_id r_id "GROUP-BY/GROUP-BY" (fun () ->
                match_group_group ctx e_grp r_grp)
        | _ -> None
      in
      if Option.is_some answer then Obs.Metrics.incr m_accepts;
      Hashtbl.replace ctx.Mctx.memo (e_id, r_id) answer;
      answer

(* ---------------- child pairing ---------------- *)

and pair_children ctx (e_quants : B.quant list) (r_quants : B.quant list) :
    Mctx.assignment option =
  let candidates qe =
    List.filter_map
      (fun qr ->
        if qr.B.q_kind <> qe.B.q_kind then None
        else
          match match_boxes ctx qe.B.q_box qr.B.q_box with
          | Some answer -> Some (qr, answer)
          | None -> None)
      r_quants
  in
  let all = List.map (fun qe -> (qe, candidates qe)) e_quants in
  let used = Hashtbl.create 8 in
  let assigned = Hashtbl.create 8 in
  let pairs = ref [] in
  let take qe (qr, answer) =
    Hashtbl.replace used qr.B.q_id ();
    Hashtbl.replace assigned qe.B.q_id ();
    pairs := !pairs @ [ (qe, qr, answer) ]
  in
  (* pass 1: unique candidates first *)
  List.iter
    (fun (qe, cands) ->
      match cands with
      | [ (qr, answer) ] when not (Hashtbl.mem used qr.B.q_id) ->
          take qe (qr, answer)
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
              (fun (_, (res, _)) ->
                match res with M.Exact _ -> true | _ -> false)
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
  match pair_children ctx e_sel.B.sel_quants r_sel.B.sel_quants with
  | None ->
      Mctx.reject ctx Obs.Trace.Child_mismatch;
      None
  | Some asg ->
      if not (extras_lossless ctx r_sel asg.Mctx.extras) then begin
        Mctx.reject ctx Obs.Trace.Extra_not_lossless;
        None
      end
      else begin
        let grouping_pairs =
          List.filter
            (fun (_, _, (res, _)) ->
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
  match select_prelude ctx asg e_sel r_sel with
  | None -> None
  | Some ({ equiv; r_outs; r_preds_canon; tx_preds; _ } as pre) -> (
      let derive t = Derive.scalar ~config:ctx.Mctx.config ~equiv ~r_outs t in
      (* conditions 3 and 5: unmatched predicates must be derivable and go
         into the compensation *)
      let comp_preds =
        List.filter_map
          (fun t ->
            if List.mem (canon_tx equiv t) r_preds_canon then None
            else
              let d = derive t in
              if Option.is_none d then
                Mctx.reject ctx (Obs.Trace.Pred_not_derivable (show_tx t));
              Some d)
          tx_preds
      in
      match all_some comp_preds with
      | None -> None
      | Some comp_preds ->
          (* condition 4, applied lazily (section 6: QCLs are created as a
             side effect of deriving the parent's expressions): output
             columns that cannot be derived are simply not exported by the
             compensation, so only parents that consume them fail *)
          let outs =
            List.filter_map
              (named (fun e ->
                   Option.bind (Translate.to_subsumer asg e) derive))
              e_sel.B.sel_outs
          in
          if outs = [] && e_sel.B.sel_outs <> [] then begin
            Mctx.reject ctx Obs.Trace.Output_not_derivable;
            None
          end
          else
            let proof = certify_select_flat ctx asg pre ~comp_preds r_sel in
            let rejoins =
              List.map (fun q -> { M.rc_quant = q }) asg.Mctx.rejoins
              @ List.concat_map
                  (fun (_, levels) -> comp_rejoins levels)
                  (child_comp_levels asg)
            in
            certified ctx
              (select_comp
                 ~complete:(List.length outs = List.length e_sel.B.sel_outs)
                 ~rejoins ~preds:comp_preds outs)
              proof)

(* 4.2.4: a single matched child whose compensation contains grouping. The
   child compensation stack is pulled up (level-0 references rewired from
   subsumer-child outputs to subsumer outputs), topped by a SELECT for the
   subsumee's own predicates and outputs. *)
and select_select_grouped ctx asg (e_sel : B.select_body)
    (r_sel : B.select_body) =
  pattern ctx "4.2.4 SELECT over a grouping child compensation";
  match (asg.Mctx.pairs, select_prelude ctx asg e_sel r_sel) with
  | _, None -> None
  | ( [ (qe, rq, (M.Comp (level0 :: rest), _)) ],
      Some { equiv; r_outs; r_preds_canon; e_preds_t; _ } ) -> (
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
      let map_names cols = all_some (List.map r_out_name_of cols) in
      let rewire_level0 = function
        | M.L_select { ls_rejoins; ls_preds; ls_outs } -> (
            let preds = all_some (List.map rewire_expr ls_preds) in
            match (preds, all_some (List.map (named rewire_expr) ls_outs)) with
            | Some ls_preds, Some ls_outs ->
                Some (M.L_select { ls_rejoins; ls_preds; ls_outs })
            | _ -> None)
        | M.L_group { lg_grouping; lg_aggs } -> (
            let grouping =
              match lg_grouping with
              | B.Simple cols ->
                  Option.map (fun c -> B.Simple c) (map_names cols)
              | B.Gsets sets ->
                  Option.map
                    (fun s -> B.Gsets s)
                    (all_some (List.map map_names sets))
            in
            let aggs =
              all_some
                (List.map
                   (fun (n, agg, arg) ->
                     match arg with
                     | None -> Some (n, agg, None)
                     | Some a ->
                         Option.map (fun a -> (n, agg, Some a)) (rewire_expr a))
                   lg_aggs)
            in
            match (grouping, aggs) with
            | Some lg_grouping, Some lg_aggs ->
                Some (M.L_group { lg_grouping; lg_aggs })
            | _ -> None)
      in
      match rewire_level0 level0 with
      | None ->
          Mctx.reject ctx
            (Obs.Trace.Unsupported
               "the grouping child compensation references a column not \
                preserved at the subsumer's output");
          None
      | Some level0' -> (
          let to_cref e =
            E.subst_col
              (fun ({ B.quant; col } as qref) ->
                if quant = qe.B.q_id then Some (E.Col (M.Below col))
                else if
                  List.exists (fun q -> q.B.q_id = quant) asg.Mctx.rejoins
                then Some (E.Col (M.Rejoin qref))
                else None)
              e
          in
          let top_preds =
            List.filter_map
              (fun (p, t) ->
                if List.mem (canon_tx equiv t) r_preds_canon then None
                else Some (p, to_cref p))
              e_preds_t
          in
          let top_outs = all_some (List.map (named to_cref) e_sel.B.sel_outs) in
          match
            (List.find_opt (fun (_, c) -> Option.is_none c) top_preds, top_outs)
          with
          | Some (p, _), _ ->
              Mctx.reject ctx (Obs.Trace.Pred_not_derivable (show_q p));
              None
          | None, None ->
              Mctx.reject ctx
                (Obs.Trace.Unsupported
                   "a query output column does not map onto the grouping \
                    child compensation");
              None
          | None, Some ls_outs ->
              let top =
                M.L_select
                  {
                    ls_rejoins =
                      List.map (fun q -> { M.rc_quant = q }) asg.Mctx.rejoins;
                    ls_preds = List.map (fun (_, c) -> Option.get c) top_preds;
                    ls_outs;
                  }
              in
              certified ctx
                (M.Comp ((level0' :: rest) @ [ top ]))
                (Prove.Unknown "4.2.4 grouping pull-up rewrite not certified")))
  | _, Some _ ->
      Mctx.reject ctx
        (Obs.Trace.Unsupported
           "4.2.4 needs one matched child with a grouping compensation");
      None

(* ---------------- GROUP BY / GROUP BY ---------------- *)

and match_group_group ctx (e_grp : B.group_body) (r_grp : B.group_body) =
  match match_boxes ctx e_grp.B.grp_quant.B.q_box r_grp.B.grp_quant.B.q_box with
  | None ->
      Mctx.reject ctx Obs.Trace.Child_mismatch;
      None
  | Some (child_res, child_proof) ->
      let levels =
        match child_res with M.Exact _ -> [] | M.Comp levels -> levels
      in
      if not (M.comp_has_group levels) then begin
        pattern ctx "4.1.2/4.2.1 regroupable GROUP BY over matched child";
        (* 4.1.2 / 4.2.1 / 5.x: child compensation is at most a SELECT *)
        let pulled_preds = comp_preds levels in
        let rejoins = comp_rejoins levels in
        let keys =
          List.map
            (fun k ->
              Option.map (fun t -> (k, t)) (Translate.child_col child_res k))
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
        (* Regrouping is exact whenever the child regions are provably
           equal and both groupings are plain (a cube slice synthesizes
           IS NULL predicates the certificate does not cover), so the
           child pair's certificate transfers to this pair. *)
        Option.bind
          (translated_group_spec ctx ~grouping:e_grp.B.grp_grouping ~keys
             ~aggs ~pulled_preds ~rejoins ~r_grp)
          (fun res ->
            certified ctx res
              (if
                 is_simple e_grp.B.grp_grouping
                 && is_simple r_grp.B.grp_grouping
               then child_proof
               else Prove.Unknown "grouping-sets (cube) rewrite not certified"))
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
  | None ->
      Mctx.reject ctx
        (Obs.Trace.Unsupported
           "the child compensation has no GROUP BY level to regroup through");
      None
  | Some (below, low_grouping, low_aggs, above) -> (
      let expand e = Translate.through_comp below e in
      let keys =
        List.map
          (fun k -> Option.map (fun t -> (k, t)) (expand (E.Col (M.Below k))))
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
      match
        translated_group_spec ctx ~grouping:low_grouping ~keys ~aggs
          ~pulled_preds:(comp_preds below) ~rejoins:(comp_rejoins below) ~r_grp
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
          certified ctx
            (M.Comp (inter_levels @ above @ [ final_group ]))
            (Prove.Unknown "4.2.2 nested regroup not certified"))

(* The subsumee grouping of 4.1.2/4.2.1 (from the child match) or 4.2.2
   (through the compensation below its lowest GROUP BY), translated into
   the subsumer child's output space: every key and aggregate argument
   must translate before the grouping can be matched. *)
and translated_group_spec ctx ~grouping ~keys ~aggs ~pulled_preds ~rejoins
    ~r_grp =
  match (all_some keys, all_some aggs) with
  | None, _ ->
      Mctx.reject ctx Obs.Trace.Grouping_not_translatable;
      None
  | _, None ->
      Mctx.reject ctx Obs.Trace.Agg_not_preserved;
      None
  | Some keys, Some aggs ->
      match_group_spec ctx ~keys ~grouping ~aggs ~pulled_preds ~rejoins ~r_grp

(* The engine room for 4.1.2 / 4.2.1 / 5.1 / 5.2. The subsumee grouping
   spec (keys, grouping, aggs) is in subsumer-child output space: key and
   aggregate-argument expressions are over [Below] of the subsumer-child's
   outputs plus [Rejoin] references. *)
and match_group_spec ctx ~keys ~grouping ~aggs ~pulled_preds ~rejoins
    ~(r_grp : B.group_body) =
  let equiv = equiv_of ctx pulled_preds in
  let r_sets = B.grouping_sets r_grp.B.grp_grouping in
  let r_union = B.grouping_union r_grp.B.grp_grouping in
  let r_is_cube = not (is_simple r_grp.B.grp_grouping) in
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
  (* 5.1's slice of a cube summary down to one cuboid: an IS [NOT] NULL
     test per grouping column, kept as separate conjuncts ([sel_preds] is
     a conjunct list, Lint.Validate V119) *)
  let slice cuboid =
    if not r_is_cube then []
    else
      List.map
        (fun col -> E.Is_null (E.Col (M.Below col), not (List.mem col cuboid)))
        r_union
  in
  (* exact-cuboid attempt: the selected keys, restricted to the cuboid, must
     cover it column-for-column; pulled predicates must restrict; aggregates
     must match subsumer aggregates directly *)
  let try_exact_cuboid sel_key_names cuboid =
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
                    | M.Below y -> List.mem y cuboid
                    | M.Rejoin _ -> false)
                  (Equiv.members equiv c)
              with
              | Some b -> b
              | None -> c))
        t
    in
    let sel_keys =
      List.filter_map
        (fun (k, t) ->
          if List.mem k sel_key_names then Some (k, to_below t) else None)
        keys
    in
    match restrict_to_cuboid equiv cuboid sel_keys pulled_preds with
    | None -> None
    | Some (rkeys, rpreds) -> (
        match all_some (List.map (named below_col) rkeys) with
        | None -> None
        | Some key_cols ->
            let covers =
              List.sort_uniq compare (List.map snd key_cols)
              = List.sort_uniq compare cuboid
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
              Option.map
                (fun direct -> (key_cols, rpreds, direct))
                (all_some
                   (List.map
                      (fun (n, agg, arg) ->
                        Option.map
                          (fun d -> (n, d))
                          (Derive.agg_direct env agg arg))
                      aggs)))
  in
  let key_out k =
    (* prefer the untouched translated key when all of its references
       survive at the subsumer's output (keeps rejoin-side names, Fig. 8) *)
    let orig = List.assoc k keys in
    let usable =
      List.for_all
        (fun c ->
          match c with
          | M.Below x -> List.mem x r_union
          | M.Rejoin _ -> true)
        (E.cols orig)
    in
    if usable then Some orig else None
  in
  let regroup regroup_grouping =
    regroup_compensation ctx ~keys ~regroup_grouping ~aggs ~equiv ~r_sets
      ~r_aggs ~arg_nullable ~rejoins ~pulled_preds ~slice
  in
  match grouping with
  | B.Simple _ -> (
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
          let outs =
            List.map
              (fun (k, x) ->
                match key_out k with
                | Some orig -> (k, orig)
                | None -> (k, E.Col (M.Below x)))
              key_cols
            @ List.map (fun (n, m) -> (n, E.Col (M.Below m))) direct
          in
          Some
            (select_comp ~complete:true ~rejoins
               ~preds:(slice cuboid @ preds')
               outs)
      | None -> regroup (B.Simple (List.map fst keys)))
  | B.Gsets sets -> (
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
      match all_some per_set with
      | Some hits when rejoins = [] ->
          (* key -> subsumer column mappings and aggregate mappings must
             agree across the chosen cuboids, and pulled predicates must
             restrict identically *)
          let merged_keys = Hashtbl.create 8 in
          let consistent = ref true in
          List.iter
            (fun (_, (key_cols, _, _)) ->
              List.iter
                (fun (k, x) ->
                  match Hashtbl.find_opt merged_keys k with
                  | None -> Hashtbl.replace merged_keys k x
                  | Some x' -> if x <> x' then consistent := false)
                key_cols)
            hits;
          let _, (_, preds0, direct0) = List.hd hits in
          List.iter
            (fun (_, (_, p, d)) ->
              if p <> preds0 || d <> direct0 then consistent := false)
            hits;
          if not !consistent then begin
            Mctx.reject ctx
              (Obs.Trace.Unsupported
                 "the query's grouping sets map onto summary cuboids that \
                  disagree on key columns, predicates or aggregates");
            None
          end
          else
            (* one element: the OR of the chosen cuboids' slices *)
            let fold op = function
              | [] -> []
              | first :: rest ->
                  [
                    List.fold_left
                      (fun acc s -> E.Binop (op, acc, s))
                      first rest;
                  ]
            in
            let disj =
              fold "OR"
                (List.concat_map (fun (c, _) -> fold "AND" (slice c)) hits)
            in
            let outs =
              List.map
                (fun (k, _) ->
                  match Hashtbl.find_opt merged_keys k with
                  | Some x -> (k, E.Col (M.Below x))
                  | None -> (k, E.Const V.Null))
                keys
              @ List.map (fun (n, m) -> (n, E.Col (M.Below m))) direct0
            in
            Some
              (M.Comp
                 [
                   M.L_select
                     {
                       ls_rejoins = [];
                       ls_preds = disj @ preds0;
                       ls_outs = outs;
                     };
                 ])
      | _ -> regroup (B.Gsets sets))

(* The [select; group; select] compensation for the regrouping cases of
   4.1.2 / 4.2.1 / 5.1 / 5.2: slice and filter the smallest usable cuboid,
   regroup by the subsumee's grouping, re-derive the aggregates. *)
and regroup_compensation ctx ~keys ~regroup_grouping ~aggs ~equiv ~r_sets
    ~r_aggs ~arg_nullable ~rejoins ~pulled_preds ~slice =
  pattern ctx "5.1/5.2 regroup from a covering cuboid";
  let candidates =
    List.filter_map
      (fun cuboid ->
        match restrict_to_cuboid equiv cuboid keys pulled_preds with
        | None -> None
        | Some (rkeys, rpreds) -> (
            let key_cols = List.filter_map (fun (_, t) -> below_col t) rkeys in
            (* rule f's exactness shortcut (COUNT(DISTINCT x) as plain
               COUNT(y)) presumes the compensation groups by ALL the keys;
               under a grouping-sets regroup the coarser cuboids group by
               fewer, so only the general DISTINCT form is sound there *)
            let ekey_cols =
              if
                is_simple regroup_grouping
                && List.length key_cols = List.length rkeys
              then Some key_cols
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
            match List.find_opt (fun (_, d) -> Option.is_none d) derived with
            | Some (n, _) ->
                Mctx.reject ctx (Obs.Trace.Agg_rule_inapplicable n);
                None
            | None ->
                Some
                  ( cuboid,
                    rkeys,
                    rpreds,
                    List.map (fun (n, d) -> (n, Option.get d)) derived )))
      r_sets
  in
  let smallest =
    if ctx.Mctx.config.Config.smallest_cuboid then
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
              if List.mem x taken then
                let rec fresh i =
                  let cand = Printf.sprintf "%s_p%d" x i in
                  if List.mem cand taken then fresh (i + 1) else cand
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
            ls_preds = slice cuboid @ preds';
            ls_outs = l0_outs;
          }
      in
      let rebase e =
        E.map_col
          (fun c ->
            match c with
            | M.Below x ->
                M.Below (Option.value ~default:x (List.assoc_opt x pass_name))
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
