module E = Qgm.Expr
module B = Qgm.Box
module G = Qgm.Graph
module R = Data.Relation
module V = Data.Value

exception Mv_error of string

let err fmt = Format.kasprintf (fun s -> raise (Mv_error s)) fmt
let norm = String.lowercase_ascii

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
let find t name = Smap.find_opt (norm name) t.s_map
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
      match (u.B.sel_preds, u.B.sel_quants, u.B.sel_distinct) with
      | [], [ uq ], false -> (
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
                            | B.Base { bt_table; _ } -> norm bt_table
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
                                if norm n = norm col then
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
                              if List.exists (fun k -> norm k = norm src) keys
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
                                List.exists
                                  (fun (_, src) -> norm src = norm k)
                                  renames)
                              keys
                          in
                          if !ok && all_keys_out then begin
                            let count_col =
                              List.find_map
                                (fun (out_name, src) ->
                                  List.find_map
                                    (fun (n, { B.agg; _ }) ->
                                      if
                                        norm n = norm src
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

let define store db ~name ~sql =
  if Smap.mem (norm name) store.s_map then
    err "summary table %s already exists" name;
  if Catalog.mem_table (Engine.Db.catalog db) name then
    err "a table named %s already exists" name;
  let ast_q =
    try Sqlsyn.Parser.parse_query sql
    with Sqlsyn.Parser.Parse_error (m, p) ->
      err "parse error in summary definition at offset %d: %s" p m
  in
  let graph =
    try Qgm.Builder.build (Engine.Db.catalog db) ast_q
    with Qgm.Builder.Sem_error m -> err "invalid summary definition: %s" m
  in
  (match Lint.Validate.check ~cat:(Engine.Db.catalog db) graph with
  | [] -> ()
  | vs ->
      err "summary definition produced ill-formed IR (%s)"
        (Lint.Validate.summary vs));
  let cols = Qgm.Typing.infer_outputs (Engine.Db.catalog db) graph in
  let contents = Engine.Exec.run db graph in
  let db = register_catalog db name cols in
  let db = Engine.Db.put db name contents in
  let entry =
    {
      e_name = name;
      e_sql = sql;
      e_graph = graph;
      e_cols = cols;
      e_tables = base_tables graph;
      e_fresh = true;
      e_incr = incr_plan_of (Engine.Db.catalog db) graph;
      (* the definition version is the epoch this incarnation first exists
         under; a re-CREATE after DROP necessarily gets a fresh one *)
      e_version = store.s_epoch + 1;
    }
  in
  (touch { store with s_map = Smap.add (norm name) entry store.s_map }, db)

(* Recovery path: re-register a summary table from its definition SQL and
   a recovered payload, WITHOUT executing the defining query. The graph and
   incremental plan are rebuilt against the recovered catalog (they are
   derived state); the payload rows are trusted as-is — the recovery ladder
   in Durable.Manager verifies them against a re-derivation afterwards and
   degrades the entry if they fail. *)
let restore store db ~name ~sql ~fresh ~rows =
  if Smap.mem (norm name) store.s_map then
    err "summary table %s already exists" name;
  if Catalog.mem_table (Engine.Db.catalog db) name then
    err "a table named %s already exists" name;
  let ast_q =
    try Sqlsyn.Parser.parse_query sql
    with
    | Sqlsyn.Parser.Parse_error (m, p) ->
        err "parse error in recovered summary definition at offset %d: %s" p m
    | Sqlsyn.Lexer.Lex_error (m, p) ->
        err "lexical error in recovered summary definition at offset %d: %s" p m
  in
  let graph =
    try Qgm.Builder.build (Engine.Db.catalog db) ast_q
    with Qgm.Builder.Sem_error m -> err "invalid recovered summary definition: %s" m
  in
  let cols = Qgm.Typing.infer_outputs (Engine.Db.catalog db) graph in
  let contents =
    try R.create (List.map fst cols) rows
    with Invalid_argument m -> err "recovered payload for %s: %s" name m
  in
  let db = register_catalog db name cols in
  let db = Engine.Db.put db name contents in
  let entry =
    {
      e_name = name;
      e_sql = sql;
      e_graph = graph;
      e_cols = cols;
      e_tables = base_tables graph;
      e_fresh = fresh;
      e_incr = incr_plan_of (Engine.Db.catalog db) graph;
      e_version = store.s_epoch + 1;
    }
  in
  (touch { store with s_map = Smap.add (norm name) entry store.s_map }, db)

(* Degraded recovery: drop a payload that failed post-recovery verification
   and leave the entry stale — excluded from rewriting until the deferred
   maintenance queue (or a manual REFRESH) rebuilds it. *)
let quarantine_payload store db name =
  match find store name with
  | None -> err "unknown summary table %s" name
  | Some e ->
      let db = Engine.Db.put db e.e_name (R.empty (List.map fst e.e_cols)) in
      ( touch
          {
            store with
            s_map =
              Smap.add (norm name) { e with e_fresh = false } store.s_map;
          },
        db )

let drop store db name =
  match find store name with
  | None -> err "unknown summary table %s" name
  | Some e ->
      let db = Engine.Db.drop db name in
      let db =
        Engine.Db.with_catalog db
          (Catalog.remove_table (Engine.Db.catalog db) e.e_name)
      in
      (touch { store with s_map = Smap.remove (norm name) store.s_map }, db)

let refresh_full ?budget store db name =
  match find store name with
  | None -> err "unknown summary table %s" name
  | Some e ->
      Guard.Fault.hit Guard.Fault.Refresh;
      let contents = Engine.Exec.run ?budget db e.e_graph in
      let db = Engine.Db.put db e.e_name contents in
      ( touch
          {
            store with
            s_map =
              Smap.add (norm name)
                { e with e_fresh = true; e_version = store.s_epoch + 1 }
                store.s_map;
          },
        db )

(* Merge a delta aggregation into the stored contents, by group key.
   [sign = -1] subtracts (delete maintenance); groups whose COUNT-star
   column reaches zero are dropped. *)
let merge_delta ?(sign = 1) plan current delta =
  let cols = Array.to_list (R.columns current) in
  let key_idx = List.map (R.column_index current) plan.ip_keys in
  let agg_idx =
    List.map (fun (n, m) -> (R.column_index current n, m)) plan.ip_aggs
  in
  let tbl = Hashtbl.create (R.cardinality current) in
  let keyed row = List.map (fun i -> row.(i)) key_idx in
  let order = ref [] in
  Array.iter
    (fun row ->
      let k = keyed row in
      Hashtbl.replace tbl k (Array.copy row);
      order := k :: !order)
    (R.rows_array current);
  let new_keys = ref [] in
  Array.iter
    (fun drow ->
      let k = keyed drow in
      match Hashtbl.find_opt tbl k with
      | None ->
          Hashtbl.replace tbl k (Array.copy drow);
          new_keys := k :: !new_keys
      | Some row ->
          List.iter
            (fun (i, m) ->
              row.(i) <-
                (match m with
                | M_add ->
                    let d =
                      if sign >= 0 then drow.(i)
                      else if drow.(i) = V.Null then V.Null
                      else V.neg drow.(i)
                    in
                    if row.(i) = V.Null then d
                    else if d = V.Null then row.(i)
                    else V.add row.(i) d
                | M_min ->
                    if row.(i) = V.Null then drow.(i)
                    else if drow.(i) = V.Null then row.(i)
                    else if V.compare drow.(i) row.(i) < 0 then drow.(i)
                    else row.(i)
                | M_max ->
                    if row.(i) = V.Null then drow.(i)
                    else if drow.(i) = V.Null then row.(i)
                    else if V.compare drow.(i) row.(i) > 0 then drow.(i)
                    else row.(i)))
            agg_idx)
    (R.rows_array delta);
  let rows =
    List.rev_map (fun k -> Hashtbl.find tbl k) !order
    @ List.rev_map (fun k -> Hashtbl.find tbl k) !new_keys
  in
  let rows =
    match plan.ip_count with
    | Some c when sign < 0 ->
        let ci = R.column_index current c in
        List.filter
          (fun row ->
            match row.(ci) with V.Int n -> n > 0 | _ -> true)
          rows
    | _ -> rows
  in
  R.create cols rows

let apply_insert store db ~table ~rows =
  let table = norm table in
  let went_stale = ref [] in
  let smap, db =
    Smap.fold
      (fun key e (smap, db) ->
        if not (List.mem table e.e_tables) then (smap, db)
        else
          match (e.e_incr, e.e_fresh) with
          | Some plan, true ->
              (* evaluate the definition against a database where the changed
                 table holds only the delta *)
              let cols =
                match Catalog.find_table (Engine.Db.catalog db) table with
                | Some t -> Catalog.column_names t
                | None -> []
              in
              let delta_db = Engine.Db.put db table (R.create cols rows) in
              let delta = Engine.Exec.run delta_db e.e_graph in
              let current = Engine.Db.get_exn db e.e_name in
              let merged = merge_delta plan current delta in
              (smap, Engine.Db.put db e.e_name merged)
          | _ ->
              if e.e_fresh then went_stale := e.e_name :: !went_stale;
              (Smap.add key { e with e_fresh = false } smap, db))
      store.s_map (store.s_map, db)
  in
  (touch { store with s_map = smap }, db, List.rev !went_stale)

let deletable plan =
  plan.ip_count <> None
  && plan.ip_delete_safe
  && List.for_all (fun (_, m) -> m = M_add) plan.ip_aggs

let apply_delete store db ~table ~rows =
  let table = norm table in
  let went_stale = ref [] in
  let smap, db =
    Smap.fold
      (fun key e (smap, db) ->
        if not (List.mem table e.e_tables) then (smap, db)
        else
          match (e.e_incr, e.e_fresh) with
          | Some plan, true when deletable plan ->
              let cols =
                match Catalog.find_table (Engine.Db.catalog db) table with
                | Some t -> Catalog.column_names t
                | None -> []
              in
              let delta_db = Engine.Db.put db table (R.create cols rows) in
              let delta = Engine.Exec.run delta_db e.e_graph in
              let current = Engine.Db.get_exn db e.e_name in
              let merged = merge_delta ~sign:(-1) plan current delta in
              (smap, Engine.Db.put db e.e_name merged)
          | _ ->
              if e.e_fresh then went_stale := e.e_name :: !went_stale;
              (Smap.add key { e with e_fresh = false } smap, db))
      store.s_map (store.s_map, db)
  in
  (touch { store with s_map = smap }, db, List.rev !went_stale)

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
