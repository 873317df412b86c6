(* LLVM-verifier-style well-formedness checker for QGM graphs.

   The rewrite pipeline's correctness argument (paper sections 4.1-4.2)
   assumes the compensation constructor preserves a set of structural
   invariants: the graph stays a rooted DAG, every quantifier points at a
   live box, every QNC resolves to an output column of the quantifier's
   box, GROUP BY boxes emit only grouping keys and aggregates, and so on.
   This module checks those invariants *statically*, so a miscompiled
   rewrite is rejected at plan time instead of (or in addition to) being
   caught dynamically by the verify oracle after execution.

   Each invariant has a stable V-code used by tests, traces and docs:

     V101 root box missing from the graph
     V102 cycle among boxes (the graph must be a DAG)
     V103 quantifier bound to a dead box (dangling child reference)
     V104 expression references a quantifier the box does not declare
     V105 QNC names a column its quantifier's box does not produce
          (for compensations: translated expressions must reference only
          subsumer outputs -- a failure here is exactly that violation)
     V106 duplicate output column names on one box
     V107 aggregate expression inside a SELECT box
     V108 grouping key / aggregate argument not produced by the group child
     V109 aggregate arity: COUNT star with an argument, or any other
          aggregate without one
     V110 UNION branch arity differs from the declared column list
     V111 scalar quantifier in a GROUP BY / UNION box (dedup wiring:
          only SELECT boxes may own scalar-subquery quantifiers)
     V112 COUNT star carrying a DISTINCT bit (dedup-bit incoherence)
     V113 grouping sets not in canonical form (empty list, a singleton
          that should be Simple, or duplicate sets)
     V114 presentation names a column the root does not output, or a
          negative LIMIT
     V115 a predicate whose type is definitely non-boolean
     V116 root box produces no output columns
     V117 SELECT box with no quantifiers (nothing to range over)
     V118 statically-unsatisfiable predicate conjunction (deep mode only:
          the static prover certified the SELECT box can never produce a
          row — e.g. [x > 10 AND x < 5] — almost certainly a typo in the
          definition)
     V119 a SELECT box predicate with AND at its top: [sel_preds] is a
          conjunct list, which the executor narrows one element at a time
          and the cost model scores one element at a time, so a conjunction
          belongs there as separate elements

   [check ~deep:true] additionally runs the V118 prover pass (used by
   [astql lint]; the plan-time final-plan check stays shallow — an
   unsatisfiable predicate is legal IR, just useless).

   [check] walks only the boxes reachable from the root: the rewriter
   legitimately leaves disconnected subtrees behind when a compensation
   takes over a box id, and those orphans never execute. *)

module B = Qgm.Box
module E = Qgm.Expr
module G = Qgm.Graph
module V = Data.Value

type violation = { v_code : string; v_box : B.box_id option; v_msg : string }

let m_runs = Obs.Metrics.counter "lint.validate.runs"
let m_violations = Obs.Metrics.counter "lint.validate.violations"

let render v =
  match v.v_box with
  | Some id -> Printf.sprintf "%s box %d: %s" v.v_code id v.v_msg
  | None -> Printf.sprintf "%s: %s" v.v_code v.v_msg

(* One-line digest for trace reasons and contained errors. *)
let summary = function
  | [] -> "ok"
  | [ v ] -> render v
  | v :: rest ->
      Printf.sprintf "%s (+%d more)" (render v) (List.length rest)

let check ?cat ?(deep = false) g =
  Obs.Metrics.incr m_runs;
  let problems = ref [] in
  let push ?box code fmt =
    Format.kasprintf
      (fun msg -> problems := { v_code = code; v_box = box; v_msg = msg } :: !problems)
      fmt
  in
  let root_id = G.root g in
  (match G.box_opt g root_id with
  | None -> push "V101" "root box %d is not in the graph" root_id
  | Some root_box ->
      (* V102/V103: DFS from the root with colors. *)
      let color = Hashtbl.create 16 in
      let rec dfs id =
        match Hashtbl.find_opt color id with
        | Some `Done -> ()
        | Some `Active -> push ~box:id "V102" "cycle through this box"
        | None -> (
            Hashtbl.replace color id `Active;
            (match G.box_opt g id with
            | None -> ()
            | Some b ->
                List.iter
                  (fun q ->
                    match G.box_opt g q.B.q_box with
                    | None ->
                        push ~box:id "V103"
                          "quantifier q%d is bound to dead box %d" q.B.q_id
                          q.B.q_box
                    | Some _ -> dfs q.B.q_box)
                  (B.quants_of b));
            Hashtbl.replace color id `Done)
      in
      dfs root_id;
      (* V116: the root must produce something. *)
      if B.output_cols root_box = [] then
        push ~box:root_id "V116" "root box produces no output columns";
      (* V114: presentation refers to root outputs only. *)
      let pres = G.presentation g in
      let root_cols = B.output_cols root_box in
      List.iter
        (fun (c, _) ->
          if not (List.mem c root_cols) then
            push ~box:root_id "V114"
              "ORDER BY column %s is not an output of the root" c)
        pres.G.order_by;
      (match pres.G.limit with
      | Some n when n < 0 -> push ~box:root_id "V114" "negative LIMIT %d" n
      | _ -> ());
      (* Per-box structural checks over the reachable subgraph. *)
      let check_unique id cols =
        let sorted = List.sort compare cols in
        let rec dup = function
          | a :: b :: _ when a = b -> Some a
          | _ :: rest -> dup rest
          | [] -> None
        in
        match dup sorted with
        | Some c -> push ~box:id "V106" "duplicate output column %s" c
        | None -> ()
      in
      let check_expr id quants ~where e =
        let find_quant qid =
          List.find_opt (fun q -> q.B.q_id = qid) quants
        in
        List.iter
          (fun { B.quant; col } ->
            match find_quant quant with
            | None ->
                push ~box:id "V104"
                  "%s references quantifier q%d which this box does not \
                   declare"
                  where quant
            | Some q -> (
                match G.box_opt g q.B.q_box with
                | None -> () (* already a V103 *)
                | Some child ->
                    if not (List.mem col (B.output_cols child)) then
                      push ~box:id "V105"
                        "%s references q%d.%s but box %d produces no column \
                         %s"
                        where quant col q.B.q_box col))
          (E.cols e)
      in
      let check_pred_type id quants e =
        match cat with
        | None -> ()
        | Some cat -> (
            (* Qgm.Typing is lenient (unknowns come back Tstr), so only a
               definitely non-boolean type is a violation. Typing chases
               quantifiers into child boxes, so on a graph with dangling
               quantifiers (already a V103) it can raise — skip then. *)
            match
              try Some (Qgm.Typing.expr_type cat g quants e)
              with Invalid_argument _ -> None
            with
            | Some (V.Tint | V.Tfloat | V.Tdate) ->
                push ~box:id "V115" "predicate %s does not type as boolean"
                  (E.to_string
                     (fun { B.quant; col } -> Printf.sprintf "q%d.%s" quant col)
                     e)
            | Some (V.Tbool | V.Tstr) | None -> ())
      in
      List.iter
        (fun id ->
          let b = G.box g id in
          match b.B.body with
          | B.Base { bt_cols; _ } -> check_unique id bt_cols
          | B.Select s ->
              check_unique id (List.map fst s.B.sel_outs);
              if s.B.sel_quants = [] then
                push ~box:id "V117" "SELECT box has no quantifiers";
              List.iter
                (fun (n, e) ->
                  check_expr id s.B.sel_quants ~where:("output " ^ n) e;
                  if E.contains_agg e then
                    push ~box:id "V107"
                      "aggregate in SELECT box expression for output %s" n)
                s.B.sel_outs;
              List.iter
                (fun p ->
                  check_expr id s.B.sel_quants ~where:"predicate" p;
                  if E.contains_agg p then
                    push ~box:id "V107" "aggregate in SELECT box predicate";
                  (match p with
                  | E.Binop ("AND", _, _) ->
                      push ~box:id "V119"
                        "predicate %s is a conjunction: split it into \
                         separate conjuncts"
                        (E.to_string
                           (fun { B.quant; col } ->
                             Printf.sprintf "q%d.%s" quant col)
                           p)
                  | _ -> ());
                  check_pred_type id s.B.sel_quants p)
                s.B.sel_preds;
              if deep && s.B.sel_preds <> [] then begin
                let col_ty { B.quant; col } =
                  match cat with
                  | None -> None
                  | Some cat -> (
                      match
                        List.find_opt
                          (fun q -> q.B.q_id = quant)
                          s.B.sel_quants
                      with
                      | Some q -> (
                          try Some (Qgm.Typing.col_type cat g q.B.q_box col)
                          with Invalid_argument _ -> None)
                      | None -> None)
                in
                match
                  Prove.unsat ~ty:(Prove.key_ty ~col:col_ty) s.B.sel_preds
                with
                | Prove.Proved ->
                    push ~box:id "V118"
                      "predicate conjunction is statically unsatisfiable \
                       (this box can never produce a row)"
                | Prove.Unknown _ -> ()
              end
          | B.Union u ->
              check_unique id u.B.un_cols;
              List.iter
                (fun q ->
                  (if q.B.q_kind <> B.Foreach then
                     push ~box:id "V111"
                       "UNION consumes branch %d through a scalar quantifier"
                       q.B.q_box);
                  match G.box_opt g q.B.q_box with
                  | None -> ()
                  | Some child ->
                      let n = List.length (B.output_cols child) in
                      if n <> List.length u.B.un_cols then
                        push ~box:id "V110"
                          "UNION branch %d has arity %d, expected %d"
                          q.B.q_box n
                          (List.length u.B.un_cols))
                u.B.un_quants
          | B.Group grp -> (
              check_unique id (B.output_cols b);
              if grp.B.grp_quant.B.q_kind <> B.Foreach then
                push ~box:id "V111"
                  "GROUP BY consumes its child through a scalar quantifier";
              (match grp.B.grp_grouping with
              | B.Simple _ -> ()
              | B.Gsets [] ->
                  push ~box:id "V113" "empty grouping-set list"
              | B.Gsets [ _ ] ->
                  push ~box:id "V113"
                    "singleton grouping-set list (canonical form is Simple)"
              | B.Gsets sets ->
                  let keys =
                    List.map (List.sort compare) sets
                  in
                  if List.length (List.sort_uniq compare keys)
                     <> List.length keys
                  then push ~box:id "V113" "duplicate grouping sets");
              match G.box_opt g grp.B.grp_quant.B.q_box with
              | None -> () (* already a V103 *)
              | Some child ->
                  let child_cols = B.output_cols child in
                  let check_col code what c =
                    if not (List.mem c child_cols) then
                      push ~box:id code "%s column %s not produced by child"
                        what c
                  in
                  List.iter
                    (check_col "V108" "grouping")
                    (B.grouping_union grp.B.grp_grouping);
                  List.iter
                    (fun (n, { B.agg; arg }) ->
                      (match arg with
                      | Some c -> check_col "V108" ("aggregate " ^ n) c
                      | None ->
                          if agg.E.fn <> E.Count_star then
                            push ~box:id "V109"
                              "aggregate %s has no argument" n);
                      match (agg.E.fn, arg) with
                      | E.Count_star, Some _ ->
                          push ~box:id "V109" "COUNT star with an argument (%s)"
                            n
                      | E.Count_star, None ->
                          if agg.E.distinct then
                            push ~box:id "V112"
                              "COUNT star carries a DISTINCT bit (%s)" n
                      | _ -> ())
                    grp.B.grp_aggs))
        (G.reachable g root_id));
  let vs = List.rev !problems in
  Obs.Metrics.add m_violations (List.length vs);
  vs
