type 'a slot = { s_value : 'a; s_epoch : int; mutable s_last : int }

type 'a t = {
  cap : int;
  tbl : (string, 'a slot) Hashtbl.t;
  mutable tick : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Cache.create: capacity must be positive";
  { cap = capacity; tbl = Hashtbl.create (min capacity 64); tick = 0 }

let capacity t = t.cap
let length t = Hashtbl.length t.tbl
let clear t = Hashtbl.reset t.tbl
let remove_where t f =
  Hashtbl.filter_map_inplace (fun _ s -> if f s.s_value then None else Some s) t.tbl

type 'a lookup = Hit of 'a | Stale | Absent

let find t ~epoch key =
  match Hashtbl.find_opt t.tbl key with
  | None -> Absent
  | Some s when s.s_epoch <> epoch ->
      Hashtbl.remove t.tbl key;
      Stale
  | Some s ->
      t.tick <- t.tick + 1;
      s.s_last <- t.tick;
      Hit s.s_value

let put t ~epoch key v =
  let evicted = ref 0 in
  if (not (Hashtbl.mem t.tbl key)) && Hashtbl.length t.tbl >= t.cap then begin
    (* evict the least recently used slot (linear scan: capacities are
       small and eviction is off the hit path) *)
    let victim =
      Hashtbl.fold
        (fun k s acc ->
          match acc with
          | Some (_, best) when best <= s.s_last -> acc
          | _ -> Some (k, s.s_last))
        t.tbl None
    in
    match victim with
    | Some (k, _) ->
        Hashtbl.remove t.tbl k;
        incr evicted
    | None -> ()
  end;
  t.tick <- t.tick + 1;
  Hashtbl.replace t.tbl key { s_value = v; s_epoch = epoch; s_last = t.tick };
  !evicted
