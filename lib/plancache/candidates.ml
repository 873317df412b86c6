module B = Qgm.Box
module G = Qgm.Graph

let footprint g =
  G.base_leaves g (G.root g)
  |> List.filter_map (fun id ->
         match (G.box g id).B.body with
         | B.Base { bt_table; _ } -> Some bt_table
         | _ -> None)
  |> List.sort_uniq compare

let dedups g =
  List.exists
    (fun id ->
      match (G.box g id).B.body with
      | B.Group _ -> true
      | _ -> false)
    (G.reachable g (G.root g))

type item = {
  it_mv : Astmatch.Rewrite.mv;
  it_key : string list * bool; (* footprint, dedup bit *)
}

type t = item list

let build mvs =
  List.map
    (fun (mv : Astmatch.Rewrite.mv) ->
      { it_mv = mv; it_key = (footprint mv.mv_graph, dedups mv.mv_graph) })
    mvs

let size t = List.length t
let names t = List.map (fun it -> it.it_mv.Astmatch.Rewrite.mv_name) t

(* Every AST footprint table must be read by the query, or joinable
   losslessly: the parent side of a foreign key declared on another
   footprint table. This over-approximates the matcher's extras_lossless
   test (which additionally checks the join predicate), so filtering here
   never rejects a candidate the matcher could accept. *)
let footprint_ok cat ~query_tables ~ast_tables =
  let referenced_extra extra =
    List.exists
      (fun src ->
        src <> extra
        &&
        match Catalog.find_table cat src with
        | Some tbl ->
            List.exists
              (fun fk -> fk.Catalog.fk_ref_table = extra)
              tbl.Catalog.foreign_keys
        | None -> false)
      ast_tables
  in
  List.for_all
    (fun t -> List.mem t query_tables || referenced_extra t)
    ast_tables

let eligible t cat g =
  let query_tables = footprint g in
  let query_dedups = dedups g in
  let verdicts = Hashtbl.create 8 in
  let key_ok ((ast_tables, ast_dedups) as key) =
    match Hashtbl.find_opt verdicts key with
    | Some v -> v
    | None ->
        let v =
          footprint_ok cat ~query_tables ~ast_tables
          && ((not ast_dedups) || query_dedups)
        in
        Hashtbl.add verdicts key v;
        v
  in
  let kept, skipped = List.partition (fun it -> key_ok it.it_key) t in
  (List.map (fun it -> it.it_mv) kept, List.map (fun it -> it.it_mv) skipped)
