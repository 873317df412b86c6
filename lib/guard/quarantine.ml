(* Known-bad (query-fingerprint x summary-table x definition-version)
   triples.

   Keyed like the plan cache's negative entries by the canonical query
   fingerprint, but each quarantined summary table is stamped with the
   *store epoch at which that table was (re)defined or refreshed* — its
   definition version — rather than the global epoch at insertion. A
   lookup presents the current versions of the live candidates:

   - same version            -> still blocked (nothing about the table
                                changed; the failure observation stands);
   - different version       -> the table was refreshed, re-created or
                                rebuilt since the failure: the entry is
                                dropped and the candidate retried;
   - absent from the lookup  -> the table is stale or dropped right now;
                                the pair is retained but not reported.

   This fixes two defects of global-epoch stamping: unrelated DML no
   longer washes quarantine away (a bad compensation stays quarantined
   under write traffic), and DROP + re-CREATE of the same name can no
   longer resurrect a stale hit, because the re-created table carries a
   new definition version. Bounded by LRU eviction over fingerprints
   (same policy as Plancache.Cache). *)

type entry = {
  (* case-preserved summary-table name x definition version *)
  mutable q_mvs : (string * int) list;
  mutable q_last : int;
}

type t = {
  tbl : (string, entry) Hashtbl.t;
  mutable tick : int;
}

(* quarantined fingerprints held before the least recently used is evicted *)
let capacity = 256

let create () = { tbl = Hashtbl.create 64; tick = 0 }

let length t = Hashtbl.length t.tbl

let entries t =
  Hashtbl.fold (fun _ e acc -> acc + List.length e.q_mvs) t.tbl 0

let clear t = Hashtbl.reset t.tbl

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | Some (_, best) when best <= e.q_last -> acc
        | _ -> Some (k, e.q_last))
      t.tbl None
  in
  match victim with Some (k, _) -> Hashtbl.remove t.tbl k | None -> ()

let add t ~version ~fp ~mv =
  t.tick <- t.tick + 1;
  match Hashtbl.find_opt t.tbl fp with
  | Some e ->
      e.q_last <- t.tick;
      if List.mem (mv, version) e.q_mvs then false
      else begin
        (* a pair for the same table under an older version is superseded *)
        e.q_mvs <- (mv, version) :: List.remove_assoc mv e.q_mvs;
        true
      end
  | None ->
      if Hashtbl.length t.tbl >= capacity then evict_lru t;
      Hashtbl.replace t.tbl fp { q_mvs = [ (mv, version) ]; q_last = t.tick };
      true

let blocked t ~versions ~fp =
  match Hashtbl.find_opt t.tbl fp with
  | None -> []
  | Some e ->
      t.tick <- t.tick + 1;
      e.q_last <- t.tick;
      let live, void =
        List.partition
          (fun (mv, v) ->
            match List.assoc_opt mv versions with
            | Some cur -> cur = v (* same definition: observation stands *)
            | None -> true (* table absent right now: keep, don't report *))
          e.q_mvs
      in
      if void <> [] then begin
        e.q_mvs <- live;
        if live = [] then Hashtbl.remove t.tbl fp
      end;
      List.filter_map
        (fun (mv, v) ->
          match List.assoc_opt mv versions with
          | Some cur when cur = v -> Some mv
          | _ -> None)
        live

let is_blocked t ~versions ~fp ~mv = List.mem mv (blocked t ~versions ~fp)
