(* Typed column vectors: the executor's batch model and the database's
   one stored form (DESIGN.md §15).

   A column is one unboxed buffer per runtime type plus an optional
   byte-per-row validity mask (1 = NULL; the data slot under a set byte is
   zero padding). A batch is a set of equal-length columns with names — the
   columnar mirror of a [Data.Relation.t].

   Numeric buffers are Bigarrays, not OCaml arrays, deliberately: column
   data lives outside the OCaml heap, so the garbage collector neither
   scans it during marking nor paces major slices against the multi-
   megabyte transient buffers a scan produces. With heap arrays the
   executor's cost was dominated by GC work proportional to allocation
   size times live-heap size; with Bigarrays a batch costs a malloc.

   Decoding a relation classifies each column in one pass (all-Int, numeric
   Int/Float mix promoted to float, dictionary-encoded strings, booleans,
   dates) and falls back to a boxed [Value.t array] for anything mixed —
   the executor's kernels then degrade gracefully per column instead of
   refusing the whole batch. [Engine.Db] decodes each table once, when it
   is stored, and keeps only the batch; the executor scans stored batches
   directly, so no read decodes. *)

module V = Data.Value
module R = Data.Relation
module BA1 = Bigarray.Array1

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) BA1.t
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) BA1.t

let icreate n : ints = BA1.create Bigarray.int Bigarray.c_layout n
let fcreate n : floats = BA1.create Bigarray.float64 Bigarray.c_layout n

(* ------------------------------------------------------------------ *)
(* Scratch arena                                                       *)
(* ------------------------------------------------------------------ *)

(* Executing one query allocates tens of megabytes of short-lived numeric
   buffers (selections, gathered columns, kernel outputs). Allocating each
   as a fresh Bigarray is correct but slow for two compounding reasons:
   the runtime charges out-of-heap custom memory to the major GC, whose
   marking slices then repeatedly traverse the (large, boxed, static)
   database heap; and once freed, multi-megabyte blocks go back to the OS,
   so the next query pays kernel zeroing and page faults again.

   Instead, scratch buffers are bump-allocated from pooled chunks. A
   domain-local arena is armed for the duration of one [Exec.run]
   ([scratch_begin]/[scratch_end], nestable); every chunk returns to a
   process-wide pool at the end of the run, so steady state allocates
   nothing. Scratch buffers must not outlive the run — executor results
   are boxed into relations, or copied out with [persist], before the
   arena resets, and stored batches use permanent allocations
   ([icreate]/[fcreate]). When no arena is armed (unit tests driving
   kernels directly, DML appending to a stored batch), scratch requests
   degrade to permanent allocations. *)

let chunk_elems = 1 lsl 20 (* 8 MB *)
let pool_max_chunks = 24 (* per kind: bounds idle pool at ~192 MB *)

let ipool : ints list ref = ref []
let fpool : floats list ref = ref []
let pool_mutex = Mutex.create ()

let take_chunk pool n =
  Mutex.lock pool_mutex;
  let rec go acc = function
    | [] -> (None, List.rev acc)
    | c :: rest ->
        if BA1.dim c >= n then (Some c, List.rev_append acc rest)
        else go (c :: acc) rest
  in
  let found, rest = go [] !pool in
  pool := rest;
  Mutex.unlock pool_mutex;
  found

let give_chunks pool cs =
  Mutex.lock pool_mutex;
  List.iter
    (fun c -> if List.length !pool < pool_max_chunks then pool := c :: !pool)
    cs;
  Mutex.unlock pool_mutex

type arena = {
  mutable icur : ints;
  mutable ioff : int;
  mutable iused : ints list;
  mutable fcur : floats;
  mutable foff : int;
  mutable fused : floats list;
  mutable depth : int;
  mutable requested : int; (* bytes handed out since the outermost begin *)
}

(* Bytes of scratch one outermost run requested, observed when it ends.
   The values are bytes, not milliseconds: the bounds run from 64 kB to
   1 GB in powers of four. *)
let x_scratch_bytes =
  Obs.Metrics.histogram
    ~bounds:(Array.init 8 (fun i -> 65536. *. (4. ** float_of_int i)))
    "exec.scratch_bytes"

let arena_key =
  Domain.DLS.new_key (fun () ->
      {
        icur = icreate 0;
        ioff = 0;
        iused = [];
        fcur = fcreate 0;
        foff = 0;
        fused = [];
        depth = 0;
        requested = 0;
      })

let scratch_begin () =
  let a = Domain.DLS.get arena_key in
  a.depth <- a.depth + 1

let scratch_end () =
  let a = Domain.DLS.get arena_key in
  a.depth <- a.depth - 1;
  if a.depth <= 0 then begin
    a.depth <- 0;
    Obs.Metrics.observe x_scratch_bytes (float_of_int a.requested);
    a.requested <- 0;
    let is = if BA1.dim a.icur > 0 then a.icur :: a.iused else a.iused in
    let fs = if BA1.dim a.fcur > 0 then a.fcur :: a.fused else a.fused in
    a.icur <- icreate 0;
    a.ioff <- 0;
    a.iused <- [];
    a.fcur <- fcreate 0;
    a.foff <- 0;
    a.fused <- [];
    give_chunks ipool is;
    give_chunks fpool fs
  end

let scratch_ints n : ints =
  let a = Domain.DLS.get arena_key in
  if a.depth = 0 then icreate n
  else begin
    a.requested <- a.requested + (8 * n);
    if n > BA1.dim a.icur - a.ioff then begin
      if BA1.dim a.icur > 0 then a.iused <- a.icur :: a.iused;
      let cap = max chunk_elems n in
      a.icur <-
        (match take_chunk ipool cap with Some c -> c | None -> icreate cap);
      a.ioff <- 0
    end;
    let b = BA1.sub a.icur a.ioff n in
    a.ioff <- a.ioff + n;
    b
  end

let scratch_floats n : floats =
  let a = Domain.DLS.get arena_key in
  if a.depth = 0 then fcreate n
  else begin
    a.requested <- a.requested + (8 * n);
    if n > BA1.dim a.fcur - a.foff then begin
      if BA1.dim a.fcur > 0 then a.fused <- a.fcur :: a.fused;
      let cap = max chunk_elems n in
      a.fcur <-
        (match take_chunk fpool cap with Some c -> c | None -> fcreate cap);
      a.foff <- 0
    end;
    let b = BA1.sub a.fcur a.foff n in
    a.foff <- a.foff + n;
    b
  end

type data =
  | Ints of ints
  | Floats of floats
  | Dates of ints               (* yyyymmdd encoding, as in Value.Date *)
  | Bools of Bytes.t            (* '\001' = true *)
  | Dict of ints * string array (* per-row code into the dictionary *)
  | Boxed of V.t array          (* mixed / unclassified *)

type t = { data : data; nulls : Bytes.t option }

type batch = { names : string array; cols : t array; nrows : int }

let length c =
  match c.data with
  | Ints a | Dates a -> BA1.dim a
  | Floats a -> BA1.dim a
  | Bools b -> Bytes.length b
  | Dict (codes, _) -> BA1.dim codes
  | Boxed a -> Array.length a

(* every row is NULL (vacuously so for an empty column) *)
let is_all_null c =
  match c.nulls with Some m -> not (Bytes.contains m '\000') | None -> length c = 0

let is_null c i =
  match c.nulls with None -> false | Some m -> Bytes.unsafe_get m i = '\001'

let get c i =
  if is_null c i then V.Null
  else
    match c.data with
    | Ints a -> V.Int (BA1.get a i)
    | Floats a -> V.Float (BA1.get a i)
    | Dates a -> V.Date (BA1.get a i)
    | Bools b -> V.Bool (Bytes.get b i = '\001')
    | Dict (codes, dict) -> V.Str dict.(BA1.get codes i)
    | Boxed a -> a.(i)

(* ------------------------------------------------------------------ *)
(* Classification / decode                                             *)
(* ------------------------------------------------------------------ *)

let no_nulls m = Bytes.for_all (fun c -> c = '\000') m

let of_values (vals : V.t array) : t =
  let n = Array.length vals in
  let ints = ref 0 and floats = ref 0 and strs = ref 0 and bools = ref 0 in
  let dates = ref 0 and nulls = ref 0 in
  for i = 0 to n - 1 do
    match vals.(i) with
    | V.Null -> incr nulls
    | V.Int _ -> incr ints
    | V.Float _ -> incr floats
    | V.Str _ -> incr strs
    | V.Bool _ -> incr bools
    | V.Date _ -> incr dates
  done;
  let nonnull = n - !nulls in
  let mask = if !nulls > 0 then Some (Bytes.make n '\000') else None in
  let set_null i = match mask with Some m -> Bytes.set m i '\001' | None -> () in
  let data =
    if nonnull = 0 then begin
      (match mask with Some m -> Bytes.fill m 0 n '\001' | None -> ());
      Boxed (Array.map (fun _ -> V.Null) vals)
    end
    else if !ints = nonnull then begin
      let a = icreate n in
      for i = 0 to n - 1 do
        match vals.(i) with
        | V.Int x -> BA1.unsafe_set a i x
        | _ ->
            BA1.unsafe_set a i 0;
            set_null i
      done;
      Ints a
    end
    else if !ints + !floats = nonnull then begin
      let a = fcreate n in
      for i = 0 to n - 1 do
        match vals.(i) with
        | V.Int x -> BA1.unsafe_set a i (float_of_int x)
        | V.Float x -> BA1.unsafe_set a i x
        | _ ->
            BA1.unsafe_set a i 0.0;
            set_null i
      done;
      Floats a
    end
    else if !strs = nonnull then begin
      let codes = icreate n in
      let tbl = Hashtbl.create 64 in
      let dict = ref [] and next = ref 0 in
      for i = 0 to n - 1 do
        match vals.(i) with
        | V.Str s ->
            let code =
              match Hashtbl.find_opt tbl s with
              | Some c -> c
              | None ->
                  let c = !next in
                  Hashtbl.add tbl s c;
                  dict := s :: !dict;
                  incr next;
                  c
            in
            BA1.unsafe_set codes i code
        | _ ->
            BA1.unsafe_set codes i 0;
            set_null i
      done;
      Dict (codes, Array.of_list (List.rev !dict))
    end
    else if !dates = nonnull then begin
      let a = icreate n in
      for i = 0 to n - 1 do
        match vals.(i) with
        | V.Date x -> BA1.unsafe_set a i x
        | _ ->
            BA1.unsafe_set a i 0;
            set_null i
      done;
      Dates a
    end
    else if !bools = nonnull then begin
      let b = Bytes.make n '\000' in
      for i = 0 to n - 1 do
        match vals.(i) with
        | V.Bool true -> Bytes.set b i '\001'
        | V.Bool false -> ()
        | _ -> set_null i
      done;
      Bools b
    end
    else begin
      (* mixed tags: keep boxed, but still record the mask for kernels *)
      for i = 0 to n - 1 do
        if V.is_null vals.(i) then set_null i
      done;
      Boxed (Array.copy vals)
    end
  in
  { data; nulls = mask }

let to_values c =
  let n = length c in
  Array.init n (get c)

let const v n : t =
  match v with
  | V.Null -> { data = Boxed (Array.make n V.Null); nulls = Some (Bytes.make n '\001') }
  | V.Int x ->
      let a = scratch_ints n in
      BA1.fill a x;
      { data = Ints a; nulls = None }
  | V.Float x ->
      let a = scratch_floats n in
      BA1.fill a x;
      { data = Floats a; nulls = None }
  | V.Date x ->
      let a = scratch_ints n in
      BA1.fill a x;
      { data = Dates a; nulls = None }
  | V.Bool b -> { data = Bools (Bytes.make n (if b then '\001' else '\000')); nulls = None }
  | V.Str s ->
      let codes = scratch_ints n in
      BA1.fill codes 0;
      { data = Dict (codes, [| s |]); nulls = None }

(* ------------------------------------------------------------------ *)
(* Batch <-> relation                                                  *)
(* ------------------------------------------------------------------ *)

let of_relation (r : R.t) : batch =
  let rows = R.rows_array r in
  let names = R.columns r in
  let n = Array.length rows in
  let cols =
    Array.mapi
      (fun ci _ -> of_values (Array.init n (fun i -> rows.(i).(ci))))
      names
  in
  { names; cols; nrows = n }

let to_relation (b : batch) : R.t =
  let rows =
    List.init b.nrows (fun i ->
        Array.map (fun c -> get c i) b.cols)
  in
  R.create (Array.to_list b.names) rows

(* A copy of [b] in permanent buffers, safe to keep after the scratch
   arena recycles its chunks. Boxed columns are re-classified, so a stored
   batch is typed wherever decoding its values would be. *)
let persist (b : batch) : batch =
  let ints a =
    let out = icreate (BA1.dim a) in
    BA1.blit a out;
    out
  in
  let col c =
    match c.data with
    | Ints a -> { c with data = Ints (ints a) }
    | Dates a -> { c with data = Dates (ints a) }
    | Dict (codes, dict) -> { c with data = Dict (ints codes, dict) }
    | Floats a ->
        let out = fcreate (BA1.dim a) in
        BA1.blit a out;
        { c with data = Floats out }
    | Bools _ -> c
    | Boxed a -> of_values a
  in
  { b with cols = Array.map col b.cols }

(* Distinct values, NULL counting as one, as a hash table of the boxed
   values counts them: -0.0 is 0.0 and every NaN is one value. Typed
   columns count without boxing. Integers (and dates, and dictionary
   codes, whose dictionaries hold distinct strings) whose span is small
   next to the row count mark a byte bitmap over [lo, hi]; wider ones, and
   floats by their bits, go into an open-addressing set that doubles at
   half load. Both are exact. *)

(* Fibonacci hashing: the top [bits] bits of [x] times 2^63/phi *)
let fib_hash x bits = (x * 0x4F1BBCDCBFA53E0B) lsr (Sys.int_size - bits)

(* Open-addressing sets with linear probing over [2^bits] slots, grown by
   doubling at half load. An int set marks empty slots with min_int and a
   float set with NaN, so callers count those values aside. [add_int] and
   [add_float] insert [src.{i}] and tell whether it was new; they take the
   source buffer rather than the value so that no float is boxed on the
   way, and every loop here is written out per type for the same reason. *)
let add_int (s : ints) bits (src : ints) i =
  let x = BA1.unsafe_get src i in
  let mask = BA1.dim s - 1 in
  let h = ref (fib_hash x bits) in
  while
    let y = BA1.unsafe_get s !h in
    y <> min_int && y <> x
  do
    h := (!h + 1) land mask
  done;
  BA1.unsafe_get s !h = min_int && (BA1.unsafe_set s !h x; true)

let int_set bits old =
  let s = icreate (1 lsl bits) in
  BA1.fill s min_int;
  for h = 0 to BA1.dim old - 1 do
    if BA1.unsafe_get old h <> min_int then ignore (add_int s bits old h)
  done;
  s

(* -0.0 goes in as 0.0 *)
let add_float (s : floats) bits (src : floats) i =
  let x = BA1.unsafe_get src i in
  let x = if x = 0.0 then 0.0 else x in
  let mask = BA1.dim s - 1 in
  let h = ref (fib_hash (Int64.to_int (Int64.bits_of_float x)) bits) in
  while
    let y = BA1.unsafe_get s !h in
    y = y && y <> x
  do
    h := (!h + 1) land mask
  done;
  let y = BA1.unsafe_get s !h in
  y <> y && (BA1.unsafe_set s !h x; true)

let float_set bits old =
  let s = fcreate (1 lsl bits) in
  BA1.fill s Float.nan;
  for h = 0 to BA1.dim old - 1 do
    if not (Float.is_nan (BA1.unsafe_get old h)) then ignore (add_float s bits old h)
  done;
  s

let int_bounds n (a : ints) (nulls : Bytes.t option) : int * int =
  let lo = ref max_int and hi = ref min_int in
  (match nulls with
  | None ->
      for i = 0 to n - 1 do
        let x = BA1.unsafe_get a i in
        if x < !lo then lo := x;
        if x > !hi then hi := x
      done
  | Some m ->
      for i = 0 to n - 1 do
        if Bytes.unsafe_get m i = '\000' then begin
          let x = BA1.unsafe_get a i in
          if x < !lo then lo := x;
          if x > !hi then hi := x
        end
      done);
  (!lo, !hi)

(* distinct non-NULL values of [a]; [m] marks NULL rows when [masked] *)
let distinct_ints (a : ints) masked m =
  let n = BA1.dim a in
  let lo, hi = int_bounds n a (if masked then Some m else None) in
  (* the true span overflows, and [hi - lo] wraps negative, only when it
     exceeds max_int *)
  let span = hi - lo in
  if lo > hi then 0
  else if span >= 0 && span < (4 * n) + 1024 then begin
    let seen = Bytes.make (span + 1) '\000' in
    let count = ref 0 in
    for i = 0 to n - 1 do
      if (not masked) || Bytes.unsafe_get m i = '\000' then begin
        let k = BA1.unsafe_get a i - lo in
        if Bytes.unsafe_get seen k = '\000' then begin
          Bytes.unsafe_set seen k '\001';
          incr count
        end
      end
    done;
    !count
  end
  else begin
    let bits = ref 6 in
    let set = ref (int_set !bits (icreate 0)) in
    let size = ref 0 and has_min = ref false in
    for i = 0 to n - 1 do
      if (not masked) || Bytes.unsafe_get m i = '\000' then
        if BA1.unsafe_get a i = min_int then has_min := true
        else if add_int !set !bits a i then begin
          incr size;
          if 2 * !size > BA1.dim !set then begin
            incr bits;
            set := int_set !bits !set
          end
        end
    done;
    !size + Bool.to_int !has_min
  end

(* distinct non-NULL values of [a], every NaN one value *)
let distinct_floats (a : floats) masked m =
  let bits = ref 6 in
  let set = ref (float_set !bits (fcreate 0)) in
  let size = ref 0 and has_nan = ref false in
  for i = 0 to BA1.dim a - 1 do
    if (not masked) || Bytes.unsafe_get m i = '\000' then
      if Float.is_nan (BA1.unsafe_get a i) then has_nan := true
      else if add_float !set !bits a i then begin
        incr size;
        if 2 * !size > BA1.dim !set then begin
          incr bits;
          set := float_set !bits !set
        end
      end
  done;
  !size + Bool.to_int !has_nan

let ndv (c : t) : int =
  let masked, m =
    match c.nulls with Some m -> (true, m) | None -> (false, Bytes.empty)
  in
  let null = Bool.to_int (masked && Bytes.contains m '\001') in
  match c.data with
  | Ints a | Dates a | Dict (a, _) -> distinct_ints a masked m + null
  | Floats a -> distinct_floats a masked m + null
  | Bools b ->
      let t = ref false and f = ref false in
      Bytes.iteri
        (fun i x ->
          if (not masked) || Bytes.unsafe_get m i = '\000' then
            if x = '\001' then t := true else f := true)
        b;
      Bool.to_int !t + Bool.to_int !f + null
  | Boxed _ ->
      let seen = Hashtbl.create 64 in
      for i = 0 to length c - 1 do
        Hashtbl.replace seen (get c i) ()
      done;
      Hashtbl.length seen

(* ------------------------------------------------------------------ *)
(* Gather (row selection by index)                                     *)
(* ------------------------------------------------------------------ *)

(* Values copied by gathers, row indices included: what late
   materialization saves shows here. *)
let x_gathered = Obs.Metrics.counter "exec.gathered_values"

(* [r] read at positions [pos]: composes a row-index vector with a
   selection over its rows. *)
let gather_index (r : ints) (pos : ints) (k : int) : ints =
  Obs.Metrics.add x_gathered k;
  let out = scratch_ints k in
  for i = 0 to k - 1 do
    BA1.unsafe_set out i (BA1.unsafe_get r (BA1.unsafe_get pos i))
  done;
  out

let gather (c : t) (idx : ints) (k : int) : t =
  Obs.Metrics.add x_gathered k;
  let data =
    match c.data with
    | Ints a ->
        let out = scratch_ints k in
        for i = 0 to k - 1 do
          BA1.unsafe_set out i (BA1.unsafe_get a (BA1.unsafe_get idx i))
        done;
        Ints out
    | Dates a ->
        let out = scratch_ints k in
        for i = 0 to k - 1 do
          BA1.unsafe_set out i (BA1.unsafe_get a (BA1.unsafe_get idx i))
        done;
        Dates out
    | Floats a ->
        let out = scratch_floats k in
        for i = 0 to k - 1 do
          BA1.unsafe_set out i (BA1.unsafe_get a (BA1.unsafe_get idx i))
        done;
        Floats out
    | Bools b -> Bools (Bytes.init k (fun i -> Bytes.unsafe_get b (BA1.unsafe_get idx i)))
    | Dict (codes, dict) ->
        let out = scratch_ints k in
        for i = 0 to k - 1 do
          BA1.unsafe_set out i (BA1.unsafe_get codes (BA1.unsafe_get idx i))
        done;
        Dict (out, dict)
    | Boxed a -> Boxed (Array.init k (fun i -> Array.unsafe_get a (BA1.unsafe_get idx i)))
  in
  let nulls =
    match c.nulls with
    | None -> None
    | Some m ->
        let m' = Bytes.init k (fun i -> Bytes.unsafe_get m (BA1.unsafe_get idx i)) in
        if no_nulls m' then None else Some m'
  in
  { data; nulls }

(* The column with every row of [m] ('\001') NULL, padding zeroed; [m]
   must already cover [c]'s own NULLs. Boxed columns are re-classified,
   like any boxed kernel output. *)
let with_nulls (c : t) (m : Bytes.t) : t =
  let k = Bytes.length m in
  let nulls = if no_nulls m then None else Some m in
  let ints (a : ints) =
    let out = scratch_ints k in
    for i = 0 to k - 1 do
      BA1.unsafe_set out i (if Bytes.unsafe_get m i = '\001' then 0 else BA1.unsafe_get a i)
    done;
    out
  in
  match c.data with
  | Ints a -> { data = Ints (ints a); nulls }
  | Dates a -> { data = Dates (ints a); nulls }
  | Dict (codes, dict) -> { data = Dict (ints codes, dict); nulls }
  | Floats a ->
      let out = scratch_floats k in
      for i = 0 to k - 1 do
        BA1.unsafe_set out i (if Bytes.unsafe_get m i = '\001' then 0.0 else BA1.unsafe_get a i)
      done;
      { data = Floats out; nulls }
  | Bools b ->
      {
        data =
          Bools (Bytes.init k (fun i -> if Bytes.unsafe_get m i = '\001' then '\000' else Bytes.get b i));
        nulls;
      }
  | Boxed a ->
      of_values (Array.init k (fun i -> if Bytes.unsafe_get m i = '\001' then V.Null else a.(i)))

(* Concatenate columns. Pieces of one physical kind concatenate typed,
   all-NULL pieces fitting any kind; anything else is re-classified from
   boxed values. Dictionary pieces sharing the first one's dictionary blit
   their codes; the others are recoded into a merged dictionary: the first
   piece's entries, then each new string in order of first appearance, so
   entries stay distinct. *)
let concat (cs : t list) : t =
  match cs with
  | [ c ] -> c
  | _ -> (
      let total = List.fold_left (fun acc c -> acc + length c) 0 cs in
      let live = List.filter (fun c -> not (is_all_null c)) cs in
      let nulls =
        if List.for_all (fun c -> c.nulls = None) cs then None
        else begin
          let m = Bytes.make total '\000' in
          ignore
            (List.fold_left
               (fun off c ->
                 Option.iter (fun cm -> Bytes.blit cm 0 m off (length c)) c.nulls;
                 off + length c)
               0 cs);
          Some m
        end
      in
      (* copy each live piece's buffer to its offset; NULL pieces stay 0 *)
      let place blit =
        ignore
          (List.fold_left
             (fun off c ->
               if not (is_all_null c) then blit c off;
               off + length c)
             0 cs)
      in
      let same_kind a b =
        match (a.data, b.data) with
        | Ints _, Ints _ | Dates _, Dates _ | Floats _, Floats _ | Dict _, Dict _ ->
            true
        | _ -> false
      in
      match live with
      | first :: rest when List.for_all (same_kind first) rest -> (
          match first.data with
          | Ints _ | Dates _ | Dict _ ->
              let out = scratch_ints total in
              BA1.fill out 0;
              let d0 = match first.data with Dict (_, d) -> d | _ -> [||] in
              (* the merged dictionary: [d0]'s codes, then [added] (newest
                 first) from code [Array.length d0] on *)
              let code_of =
                lazy
                  (let tbl = Hashtbl.create (2 * Array.length d0) in
                   Array.iteri (fun code s -> Hashtbl.replace tbl s code) d0;
                   tbl)
              in
              let added = ref [] and next = ref (Array.length d0) in
              let merged_code s =
                let tbl = Lazy.force code_of in
                match Hashtbl.find_opt tbl s with
                | Some code -> code
                | None ->
                    let code = !next in
                    Hashtbl.add tbl s code;
                    added := s :: !added;
                    incr next;
                    code
              in
              place (fun c off ->
                  match c.data with
                  | Ints a | Dates a -> BA1.blit a (BA1.sub out off (BA1.dim a))
                  | Dict (codes, d) when d == d0 ->
                      BA1.blit codes (BA1.sub out off (BA1.dim codes))
                  | Dict (codes, d) ->
                      let remap = Array.make (Array.length d) (-1) in
                      for i = 0 to BA1.dim codes - 1 do
                        if not (is_null c i) then begin
                          let x = BA1.unsafe_get codes i in
                          if remap.(x) < 0 then remap.(x) <- merged_code d.(x);
                          BA1.unsafe_set out (off + i) remap.(x)
                        end
                      done
                  | _ -> assert false);
              let data =
                match first.data with
                | Dates _ -> Dates out
                | Dict _ when !added = [] -> Dict (out, d0)
                | Dict _ ->
                    Dict (out, Array.append d0 (Array.of_list (List.rev !added)))
                | _ -> Ints out
              in
              { data; nulls }
          | Floats _ ->
              let out = scratch_floats total in
              BA1.fill out 0.0;
              place (fun c off ->
                  match c.data with
                  | Floats a -> BA1.blit a (BA1.sub out off (BA1.dim a))
                  | _ -> assert false);
              { data = Floats out; nulls }
          | _ -> of_values (Array.concat (List.map to_values cs)))
      | _ -> of_values (Array.concat (List.map to_values cs)))
