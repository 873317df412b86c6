module E = Qgm.Expr
module B = Qgm.Box
module G = Qgm.Graph
module R = Data.Relation
module V = Data.Value
module C = Engine.Column

exception Mv_error of string

let err fmt = Format.kasprintf (fun s -> raise (Mv_error s)) fmt

type merge_fn = M_add | M_min | M_max

type incr_plan = {
  ip_keys : string list;
  ip_aggs : (string * merge_fn) list;
  ip_count : string option;
  ip_delete_safe : bool;
}

type entry = {
  e_name : string;
  e_sql : string;
  e_graph : G.t;
  e_cols : (string * V.ty) list;
  e_tables : string list;
  e_fresh : bool;
  e_incr : incr_plan option;
  e_version : int;
}

module Smap = Map.Make (String)

(* The epoch counts planning-relevant changes: summary DDL/refresh, DML
   folded through the store, and (via [touch]) table DDL in the session.
   The plan cache stamps every decision with the epoch it was made under
   and refuses to serve it under any other — see Plancache.Cache. *)
type t = { s_map : entry Smap.t; s_epoch : int }

let empty = { s_map = Smap.empty; s_epoch = 0 }
let entries t = List.map snd (Smap.bindings t.s_map)
let find t name = Smap.find_opt name t.s_map
let epoch t = t.s_epoch
let touch t = { t with s_epoch = t.s_epoch + 1 }

let stale t =
  List.filter_map
    (fun e -> if e.e_fresh then None else Some e.e_name)
    (entries t)
let base_tables g = Plancache.Candidates.footprint g

(* Detect the insert-incremental shape: a single SELECT / GROUP BY / SELECT
   block over base tables, simple grouping, no HAVING, additive-mergeable
   aggregates (COUNT/SUM/MIN/MAX without DISTINCT), outputs that are plain
   renames, and each base table scanned at most once. *)
let incr_plan_of cat g =
  let root = G.box g (G.root g) in
  match root.B.body with
  | B.Select u -> (
      match (u.B.sel_preds, u.B.sel_quants) with
      | [], [ uq ] -> (
          match (G.box g uq.B.q_box).B.body with
          | B.Group grp -> (
              match grp.B.grp_grouping with
              | B.Gsets _ -> None
              | B.Simple keys -> (
                  match (G.box g grp.B.grp_quant.B.q_box).B.body with
                  | B.Select low
                    when List.for_all
                           (fun q ->
                             q.B.q_kind = B.Foreach
                             && B.is_base (G.box g q.B.q_box))
                           low.B.sel_quants ->
                      let tables =
                        List.map
                          (fun q ->
                            match (G.box g q.B.q_box).B.body with
                            | B.Base { bt_table; _ } -> bt_table
                            | _ -> assert false)
                          low.B.sel_quants
                      in
                      if
                        List.length tables
                        <> List.length (List.sort_uniq compare tables)
                      then None
                      else
                        (* every root output must be a plain rename *)
                        let rename_of (n, e) =
                          match e with
                          | E.Col { B.col; _ } -> Some (n, col)
                          | _ -> None
                        in
                        let renames = List.map rename_of u.B.sel_outs in
                        if List.exists (fun r -> r = None) renames then None
                        else
                          let renames = List.filter_map (fun r -> r) renames in
                          let merge_of col =
                            List.find_map
                              (fun (n, { B.agg; _ }) ->
                                if n = col then
                                  match (agg.E.fn, agg.E.distinct) with
                                  | (E.Count | E.Count_star | E.Sum), false ->
                                      Some (Some M_add)
                                  | E.Min, false -> Some (Some M_min)
                                  | E.Max, false -> Some (Some M_max)
                                  | _ -> Some None
                                else None)
                              grp.B.grp_aggs
                          in
                          let keys_out = ref [] and aggs_out = ref [] in
                          let ok = ref true in
                          List.iter
                            (fun (out_name, src) ->
                              if List.mem src keys
                              then keys_out := !keys_out @ [ out_name ]
                              else
                                match merge_of src with
                                | Some (Some m) ->
                                    aggs_out := !aggs_out @ [ (out_name, m) ]
                                | Some None | None -> ok := false)
                            renames;
                          (* every grouping key must survive at the output,
                             otherwise merging by key is ambiguous *)
                          let all_keys_out =
                            List.for_all
                              (fun k ->
                                List.exists (fun (_, src) -> src = k) renames)
                              keys
                          in
                          if !ok && all_keys_out then begin
                            let count_col =
                              List.find_map
                                (fun (out_name, src) ->
                                  List.find_map
                                    (fun (n, { B.agg; _ }) ->
                                      if
                                        n = src
                                        && agg.E.fn = E.Count_star
                                      then Some out_name
                                      else None)
                                    grp.B.grp_aggs)
                                renames
                            in
                            (* deletion can only be folded in when every
                               SUM argument is non-nullable: subtracting
                               from a sum cannot restore the NULL that a
                               group of all-NULL arguments requires *)
                            let sums_nonnull =
                              List.for_all
                                (fun (n, { B.agg; arg }) ->
                                  ignore n;
                                  match (agg.E.fn, arg) with
                                  | E.Sum, Some a ->
                                      not
                                        (Astmatch.Props.column_nullable cat g
                                           grp.B.grp_quant.B.q_box a)
                                  | _ -> true)
                                grp.B.grp_aggs
                            in
                            Some
                              {
                                ip_keys = !keys_out;
                                ip_aggs = !aggs_out;
                                ip_count = count_col;
                                ip_delete_safe = sums_nonnull;
                              }
                          end
                          else None
                  | _ -> None))
          | _ -> None)
      | _ -> None)
  | _ -> None

let register_catalog db name cols =
  let cat = Engine.Db.catalog db in
  let tbl =
    {
      Catalog.tbl_name = name;
      tbl_cols =
        List.map
          (fun (n, ty) -> { Catalog.col_name = n; col_ty = ty; nullable = true })
          cols;
      primary_key = [];
      unique_keys = [];
      foreign_keys = [];
    }
  in
  Engine.Db.with_catalog db (Catalog.add_table cat tbl)

(* The checks of a definition that depend on the current store and
   catalog: its name is free, and its footprint names no summary table. *)
let check_name store db name =
  match Catalog.find_table (Engine.Db.catalog db) name with
  | Some tbl when Smap.mem tbl.Catalog.tbl_name store.s_map ->
      err "summary table %s already exists" name
  | Some _ -> err "a table named %s already exists" name
  | None -> ()

(* Maintenance follows a summary's footprint to the tables under it, so a
   summary over a summary would never see its base tables change. *)
let check_footprint store ~name graph =
  List.iter
    (fun t ->
      match Smap.find_opt t store.s_map with
      | Some inner ->
          err "summary table %s cannot be defined over summary table %s" name
            inner.e_name
      | None -> ())
    (base_tables graph)

(* Parse, build and check a definition against the current catalog and
   store: the checks every summary passes, whether it is defined now or
   restored from a checkpoint. *)
let elaborate store db ~name ~sql =
  check_name store db name;
  let ast_q =
    try Sqlsyn.Parser.parse_query sql
    with
    | Sqlsyn.Parser.Parse_error (m, p) ->
        err "parse error in summary definition at offset %d: %s" p m
    | Sqlsyn.Lexer.Lex_error (m, p) ->
        err "lexical error in summary definition at offset %d: %s" p m
  in
  let graph =
    try Qgm.Builder.build (Engine.Db.catalog db) ast_q
    with Qgm.Builder.Sem_error m -> err "invalid summary definition: %s" m
  in
  check_footprint store ~name graph;
  (match Lint.Validate.check ~cat:(Engine.Db.catalog db) graph with
  | [] -> ()
  | vs ->
      err "summary definition produced ill-formed IR (%s)"
        (Lint.Validate.summary vs));
  (graph, Qgm.Typing.infer_outputs (Engine.Db.catalog db) graph)

let install store db ~name ~sql graph cols ~fresh contents =
  let db = register_catalog db name cols in
  let db = Engine.Db.put_batch db name contents in
  let entry =
    {
      e_name = name;
      e_sql = sql;
      e_graph = graph;
      e_cols = cols;
      e_tables = base_tables graph;
      e_fresh = fresh;
      e_incr = incr_plan_of (Engine.Db.catalog db) graph;
      (* the definition version is the epoch this incarnation first exists
         under; a re-CREATE after DROP necessarily gets a fresh one *)
      e_version = store.s_epoch + 1;
    }
  in
  (touch { store with s_map = Smap.add name entry store.s_map }, db)

(* ---------------- deriving a set of definitions ---------------- *)

let m_from_summary = Obs.Metrics.counter "store.derived_from_summary"
let m_discarded = Obs.Metrics.counter "store.derived_discarded"

(* One member, elaborated and derived ahead of its install. *)
type derived = {
  d_sql : string;
  d_graph : G.t;
  d_cols : (string * V.ty) list;
  d_contents : C.batch;
  d_reads : (string * Catalog.table option * C.batch) list;
      (* each footprint table, with the definition and the batch it had at
         derivation *)
  d_parent : string option;  (* the member it was rolled up from *)
}

type derivation = derived Smap.t

(* Grouping columns of the definition's widest GROUP BY (for grouping sets,
   the union of the sets): members are derived widest first, so a parent
   is derived before the rollups it can answer. *)
let grouping_width g =
  List.fold_left
    (fun w id ->
      match (G.box g id).B.body with
      | B.Group grp -> max w (List.length (B.grouping_union grp.B.grp_grouping))
      | _ -> w)
    0
    (G.reachable g (G.root g))

(* Regrouping a parent's groups gives exactly the base derivation's values
   for COUNT, integer SUM, MIN and MAX; a float SUM would add in another
   order, and AVG is not re-aggregated. A grouping over the empty set is
   refused too: its total row exists over no input rows, where COUNT reads
   0, but a rolled-up COUNT is a SUM of the parent's counts and reads NULL
   over no parent rows. *)
let regroups_exactly cat g =
  List.for_all
    (fun id ->
      match (G.box g id).B.body with
      | B.Group grp ->
          (not (List.mem [] (B.grouping_sets grp.B.grp_grouping)))
          && List.for_all
               (fun (_, { B.agg; arg }) ->
                 match (agg.E.fn, arg) with
                 | (E.Count_star | E.Count | E.Min | E.Max), _ -> true
                 | E.Sum, Some a ->
                     Qgm.Typing.col_type cat g grp.B.grp_quant.B.q_box a = V.Tint
                 | _ -> false)
               grp.B.grp_aggs
      | _ -> true)
    (G.reachable g (G.root g))

(* [f ()], or [None] when it fails the way a planned rewrite's candidate
   may ([Guard.Sandbox.protect]: interrupts, budget exhaustion and
   resource exhaustion propagate). *)
let contained ~stage f =
  match Guard.Sandbox.protect ~stage f with Ok v -> Some v | Error _ -> None

(* The first candidate whose rewrite of [graph] reads that candidate alone
   and passes validation, as the planner's rewrites must, run over
   [scratch]: the parent's name and the contents. *)
let from_member scratch graph candidates =
  let cat = Engine.Db.catalog scratch in
  List.find_map
    (fun (mv : Astmatch.Rewrite.mv) ->
      match Astmatch.Rewrite.best ~cat graph [ mv ] with
      | Some (g', _)
        when base_tables g' = [ mv.mv_name ] && Lint.Validate.check ~cat g' = [] ->
          Some (mv.mv_name, Engine.Exec.run_batch scratch g')
      | _ -> None)
    candidates

(* Derive [defs] (name, defining SQL) over one state, widest grouping
   first (ties in list order). Each member is answered through the matcher
   from the smallest member derived before it that can answer it (§5.1's
   smallest-cuboid rule across summaries), over a scratch database holding
   the members so far; otherwise, and whenever matching or execution
   fails, from the base tables. A definition that does not elaborate,
   repeats an earlier name or fails to derive gets no entry: its own
   install reports it. *)
let derive_set store db defs =
  let cat = Engine.Db.catalog db in
  let members =
    List.fold_left
      (fun acc (name, sql) ->
        if List.exists (fun (n, _, _, _) -> n = name) acc then acc
        else
          match elaborate store db ~name ~sql with
          | graph, cols -> (name, sql, graph, cols) :: acc
          | exception Mv_error _ -> acc)
      [] defs
    |> List.rev
    |> List.stable_sort (fun (_, _, a, _) (_, _, b, _) ->
           compare (grouping_width b) (grouping_width a))
  in
  (* [candidates]: the members so far with their row counts, ascending *)
  let derive scratch candidates graph =
    let rolled_up =
      if not (regroups_exactly cat graph) then None
      else
        Option.join
          (contained ~stage:Guard.Error.Match (fun () ->
               from_member scratch graph (List.map fst candidates)))
    in
    match rolled_up with
    | Some (parent, contents) -> Some (contents, Some parent)
    | None ->
        contained ~stage:Guard.Error.Execute (fun () -> (Engine.Exec.run_batch db graph, None))
  in
  let step ((scratch, candidates, out) as acc) (name, sql, graph, cols) =
    (* a name that repeats a member's in another case clashes at install *)
    let clash = Catalog.mem_table (Engine.Db.catalog scratch) name in
    match if clash then None else derive scratch candidates graph with
    | None -> acc
    | Some (contents, d_parent) ->
        let d_reads =
          List.map
            (fun t -> (t, Catalog.find_table cat t, Engine.Db.batch db t))
            (base_tables graph)
        in
        let d = { d_sql = sql; d_graph = graph; d_cols = cols; d_contents = contents; d_reads; d_parent } in
        let rows = contents.C.nrows in
        let smaller, larger = List.partition (fun (_, n) -> n <= rows) candidates in
        let mv = { Astmatch.Rewrite.mv_name = name; mv_graph = graph; mv_version = 0 } in
        ( Engine.Db.put_batch_uncounted (register_catalog scratch name cols) name contents,
          smaller @ ((mv, rows) :: larger),
          Smap.add name d out )
  in
  let _, _, out = List.fold_left step (db, [], Smap.empty) members in
  out

(* [name]'s graph, columns and contents. The pre-derived ones serve when
   [derived] holds [name] for the same [sql] and every table it read still
   has the definition and, physically, the batch it was derived over: then
   only the checks that depend on the current store and catalog run
   again. Otherwise the definition is elaborated and derived from the base
   tables, as without a derivation. *)
let prepare derived store db ~name ~sql =
  let unchanged (t, tbl, b) =
    Catalog.find_table (Engine.Db.catalog db) t = tbl
    &&
    match Engine.Db.batch db t with
    | b' -> b' == b
    | exception Invalid_argument _ -> false
  in
  match Smap.find_opt name derived with
  | Some d when d.d_sql = sql && List.for_all unchanged d.d_reads ->
      check_name store db name;
      check_footprint store ~name d.d_graph;
      if d.d_parent <> None then Obs.Metrics.incr m_from_summary;
      (d.d_graph, d.d_cols, fun () -> d.d_contents)
  | found ->
      let graph, cols = elaborate store db ~name ~sql in
      (match found with
      | Some d when d.d_sql = sql -> Obs.Metrics.incr m_discarded
      | _ -> ());
      (graph, cols, fun () -> Engine.Exec.run_batch db graph)

let define ?(derived = Smap.empty) store db ~name ~sql =
  let graph, cols, contents = prepare derived store db ~name ~sql in
  install store db ~name ~sql graph cols ~fresh:true (contents ())

(* Recovery path. A fresh summary is re-derived, as [define] would; one
   whose derivation fails boots empty and stale rather than not at all. A
   stale summary keeps its checkpointed payload, the contents of its last
   refresh. *)
let restore ?(derived = Smap.empty) store db ~name ~sql ~payload =
  match payload with
  | None -> (
      let graph, cols, contents = prepare derived store db ~name ~sql in
      let install = install store db ~name ~sql graph cols in
      match contents () with
      | contents -> install ~fresh:true contents
      | exception _ -> install ~fresh:false (C.of_relation (R.empty (List.map fst cols))))
  | Some (batch : C.batch) ->
      let graph, cols = elaborate store db ~name ~sql in
      if Array.length batch.C.names <> List.length cols then
        err "recovered payload for %s: %d columns, the definition has %d" name
          (Array.length batch.C.names) (List.length cols);
      install store db ~name ~sql graph cols ~fresh:false batch

let drop store db name =
  match find store name with
  | None -> err "unknown summary table %s" name
  | Some e ->
      let db = Engine.Db.drop db name in
      let db =
        Engine.Db.with_catalog db
          (Catalog.remove_table (Engine.Db.catalog db) e.e_name)
      in
      (touch { store with s_map = Smap.remove name store.s_map }, db)

let refresh_full ?budget store db name =
  match find store name with
  | None -> err "unknown summary table %s" name
  | Some e ->
      Guard.Fault.hit Guard.Fault.Refresh;
      let contents = Engine.Exec.run_batch ?budget db e.e_graph in
      let db = Engine.Db.put_batch db e.e_name contents in
      ( touch
          {
            store with
            s_map =
              Smap.add name
                { e with e_fresh = true; e_version = store.s_epoch + 1 }
                store.s_map;
          },
        db )

(* One SELECT box over [b] on the vectorized kernel: typed columns in,
   typed columns out, no row built. *)
let select_over ?(preds = []) (b : C.batch) outs =
  Engine.Vexec.exec_select
    ~child:(fun _ -> b)
    {
      B.sel_quants = [ { B.q_id = 0; q_box = 0; q_kind = B.Foreach } ];
      sel_preds = preds;
      sel_outs = outs;
    }

let col n = E.Col { B.quant = 0; col = n }

(* Merge a delta aggregation into the stored contents, by group key,
   without boxing either side: the delta is projected to the stored
   column order (its aggregates negated when [sign < 0], for delete
   maintenance), concatenated to the stored batch and regrouped on the
   plan's keys, adding counts and sums and taking MIN/MAX of extremes, so
   existing groups keep their order and new ones follow in delta order.
   Under deletion, groups whose COUNT-star column reaches zero are
   dropped. *)
let merge_delta ~sign plan (current : C.batch) (delta : C.batch) =
  let negated n = sign < 0 && List.mem_assoc n plan.ip_aggs in
  let d =
    select_over delta
      (Array.to_list
         (Array.map
            (fun n -> (n, if negated n then E.Unop ("-", col n) else col n))
            current.C.names))
  in
  let both =
    {
      current with
      C.cols = Array.map2 (fun a b -> C.concat [ a; b ]) current.C.cols d.C.cols;
      nrows = current.C.nrows + d.C.nrows;
    }
  in
  let fn = function M_add -> E.Sum | M_min -> E.Min | M_max -> E.Max in
  let merged =
    Engine.Vexec.exec_group
      ~child:(fun _ -> both)
      {
        B.grp_quant = { B.q_id = 0; q_box = 0; q_kind = B.Foreach };
        grp_grouping = B.Simple plan.ip_keys;
        grp_aggs =
          List.map
            (fun (n, m) -> (n, { B.agg = { E.fn = fn m; distinct = false }; arg = Some n }))
            plan.ip_aggs;
      }
  in
  let preds =
    match plan.ip_count with
    | Some c when sign < 0 -> [ E.Binop (">", col c, E.Const (V.Int 0)) ]
    | _ -> []
  in
  select_over ~preds merged (Array.to_list (Array.map (fun n -> (n, col n)) current.C.names))

let deletable plan =
  plan.ip_count <> None
  && plan.ip_delete_safe
  && List.for_all (fun (_, m) -> m = M_add) plan.ip_aggs

(* Fold one statement's delta into every summary over [table]: [sign > 0]
   for inserted rows, [sign < 0] for deleted ones (absorbed only by
   {!deletable} plans). [delta] is forced at most once, and only when a
   summary absorbs it; every delta aggregation reads the same database,
   the pre-statement one with [table] holding only the delta. *)
let apply_delta ~sign store db ~table ~delta =
  let delta_db = lazy (Engine.Db.put_batch db table (Lazy.force delta)) in
  let went_stale = ref [] in
  let smap, db =
    Smap.fold
      (fun key e (smap, db) ->
        if not (List.mem table e.e_tables) then (smap, db)
        else
          match (e.e_incr, e.e_fresh) with
          | Some plan, true when sign > 0 || deletable plan ->
              let d = Engine.Exec.run_batch (Lazy.force delta_db) e.e_graph in
              let merged = merge_delta ~sign plan (Engine.Db.batch db e.e_name) d in
              (smap, Engine.Db.put_batch db e.e_name merged)
          | _ ->
              if e.e_fresh then went_stale := e.e_name :: !went_stale;
              (Smap.add key { e with e_fresh = false } smap, db))
      store.s_map (store.s_map, db)
  in
  (touch { store with s_map = smap }, db, List.rev !went_stale)

(* [rows] in [table]'s column order, as a batch *)
let decode db table rows =
  let cols =
    match Catalog.find_table (Engine.Db.catalog db) table with
    | Some t -> Catalog.column_names t
    | None -> []
  in
  C.of_relation (R.create cols rows)

let apply_insert store db ~table ~rows =
  apply_delta ~sign:1 store db ~table ~delta:(lazy (decode db table rows))

let apply_delete store db ~table ~rows =
  apply_delta ~sign:(-1) store db ~table ~delta:(lazy (decode db table rows))

let rewritable store =
  List.filter_map
    (fun e ->
      if e.e_fresh then
        Some
          {
            Astmatch.Rewrite.mv_name = e.e_name;
            mv_graph = e.e_graph;
            mv_version = e.e_version;
          }
      else None)
    (entries store)
