(* The process-wide metrics registry: named monotonic counters, gauges and
   fixed-bucket latency histograms.

   Hot-path discipline: a handle is interned once (usually at module
   initialization) and every update is one (now atomic) store on the
   handle — no hashing, no allocation, no formatting, no lock. Export
   walks the registry and is the only place that allocates. The registry
   is global on purpose: the planning layers (navigator, match function,
   plan cache, executor) tick it unconditionally so that `\metrics`,
   `--metrics-out` and the bench all read the same numbers.

   Concurrency: the server runs query sessions on parallel domains, all
   ticking the same handles. Counters and gauges are Atomic cells
   (fetch-and-add / CAS), histogram buckets are per-bucket Atomic cells,
   and the interning tables are guarded by one registry mutex — so totals
   always add up: N domains doing K increments each always read N*K, never
   a torn in-between. Exports are taken without stopping writers; a
   histogram snapshot can be mid-observation (count ahead of sum by one
   in-flight update) but individual cells are never corrupt. *)

type counter = { c_name : string; c_v : int Atomic.t }
type gauge = { g_name : string; g_v : float Atomic.t }

type histogram = {
  h_name : string;
  h_bounds : float array;           (* inclusive upper bounds, milliseconds *)
  h_counts : int Atomic.t array;    (* length = Array.length h_bounds + 1 (overflow) *)
  h_count : int Atomic.t;
  h_sum : float Atomic.t;           (* milliseconds *)
}

(* Latency buckets in ms: ~10us .. 1s, then overflow. *)
let default_bounds =
  [| 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.; 2.5; 5.; 10.; 25.; 50.; 100.; 250.; 500.; 1000. |]

let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 32
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 32

(* Guards the interning tables (lookup-or-create and export walks), never
   the handles themselves — updates through a handle are lock-free. *)
let registry = Mutex.create ()

let with_registry f = Mutex.protect registry f

let counter name =
  with_registry @@ fun () ->
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None ->
      let c = { c_name = name; c_v = Atomic.make 0 } in
      Hashtbl.replace counters name c;
      c

let incr c = ignore (Atomic.fetch_and_add c.c_v 1)
let add c n = ignore (Atomic.fetch_and_add c.c_v n)
let counter_value c = Atomic.get c.c_v

let gauge name =
  with_registry @@ fun () ->
  match Hashtbl.find_opt gauges name with
  | Some g -> g
  | None ->
      let g = { g_name = name; g_v = Atomic.make 0. } in
      Hashtbl.replace gauges name g;
      g

let set g v = Atomic.set g.g_v v
let gauge_value g = Atomic.get g.g_v

(* CAS add for float cells (no float fetch_and_add in the stdlib). *)
let rec atomic_addf cell x =
  let cur = Atomic.get cell in
  if not (Atomic.compare_and_set cell cur (cur +. x)) then atomic_addf cell x

let gauge_add g x = atomic_addf g.g_v x

let histogram ?(bounds = default_bounds) name =
  with_registry @@ fun () ->
  match Hashtbl.find_opt histograms name with
  | Some h -> h
  | None ->
      let h =
        {
          h_name = name;
          h_bounds = bounds;
          h_counts = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
          h_count = Atomic.make 0;
          h_sum = Atomic.make 0.;
        }
      in
      Hashtbl.replace histograms name h;
      h

let observe h ms =
  let n = Array.length h.h_bounds in
  let rec slot i = if i >= n || ms <= h.h_bounds.(i) then i else slot (i + 1) in
  let i = slot 0 in
  ignore (Atomic.fetch_and_add h.h_counts.(i) 1);
  ignore (Atomic.fetch_and_add h.h_count 1);
  atomic_addf h.h_sum ms

let hist_count h = Atomic.get h.h_count
let hist_sum h = Atomic.get h.h_sum
let bucket_counts h = Array.map Atomic.get h.h_counts

let now_ms () = Unix.gettimeofday () *. 1000.

let time h f =
  let t0 = now_ms () in
  match f () with
  | v ->
      observe h (now_ms () -. t0);
      v
  | exception e ->
      observe h (now_ms () -. t0);
      raise e

(* ---------------- export ---------------- *)

let selected ?(prefix = "") tbl =
  with_registry (fun () ->
      Hashtbl.fold
        (fun name v acc ->
          if String.starts_with ~prefix name then (name, v) :: acc else acc)
        tbl [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* The metrics JSON schema (shared verbatim by BENCH_results.json's
   "metrics" object and the `\metrics` / --metrics-out dumps):
   { "counters":   { name: int, ... },
     "gauges":     { name: num, ... },
     "histograms": { name: { "count": int, "sum_ms": num,
                             "buckets": [ { "le_ms": num, "count": int } ... ],
                             "overflow": int }, ... } } *)
let to_json ?prefix () =
  let hist_json h =
    Json.Obj
      [
        ("count", Json.Int (Atomic.get h.h_count));
        ("sum_ms", Json.Num (Atomic.get h.h_sum));
        ( "buckets",
          Json.List
            (List.mapi
               (fun i b ->
                 Json.Obj
                   [
                     ("le_ms", Json.Num b);
                     ("count", Json.Int (Atomic.get h.h_counts.(i)));
                   ])
               (Array.to_list h.h_bounds)) );
        ("overflow", Json.Int (Atomic.get h.h_counts.(Array.length h.h_bounds)));
      ]
  in
  Json.Obj
    [
      ( "counters",
        Json.Obj
          (List.map
             (fun (n, c) -> (n, Json.Int (Atomic.get c.c_v)))
             (selected ?prefix counters)) );
      ( "gauges",
        Json.Obj
          (List.map
             (fun (n, g) -> (n, Json.Num (Atomic.get g.g_v)))
             (selected ?prefix gauges)) );
      ( "histograms",
        Json.Obj
          (List.map (fun (n, h) -> (n, hist_json h)) (selected ?prefix histograms)) );
    ]

let to_text ?prefix () =
  let buf = Buffer.create 512 in
  List.iter
    (fun (n, c) ->
      Buffer.add_string buf (Printf.sprintf "%-40s %d\n" n (Atomic.get c.c_v)))
    (selected ?prefix counters);
  List.iter
    (fun (n, g) ->
      Buffer.add_string buf (Printf.sprintf "%-40s %g\n" n (Atomic.get g.g_v)))
    (selected ?prefix gauges);
  List.iter
    (fun (n, h) ->
      let count = Atomic.get h.h_count and sum = Atomic.get h.h_sum in
      Buffer.add_string buf
        (Printf.sprintf "%-40s count=%d sum=%.3fms avg=%.3fms\n" n count sum
           (if count = 0 then 0. else sum /. float_of_int count)))
    (selected ?prefix histograms);
  Buffer.contents buf

let dump ?prefix path = Json.to_file path (to_json ?prefix ())
