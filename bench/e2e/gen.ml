(* The four workloads: the server each one needs and the request streams it
   sends. Every stream is a pure function of (seed, index), so a run, its
   correctness gate and its traced replay agree on every request without
   storing any of them. *)

module W = Workload.Star_schema
module Ds = Workload.Decision_support

type kind = Rewrite_hot | Adhoc_plan | Base_scan | Mixed_ingest

type spec = {
  kind : kind;
  name : string;
  scale : int;
  summaries : (string * string) list;  (** name, defining SELECT *)
  write_rate : float;  (** open-loop write statements per second; 0 = none *)
  trace_requests : int;  (** requests in the traced in-process replay *)
  replay_reads_per_write : int;
      (** read/write interleave of the traced replay (mixed_ingest only) *)
}

let ds_summaries = Ds.summary_tables

(* PERF6's catalog: every non-empty subset of six grouping columns. *)
let perf6_summaries =
  let dims =
    [
      ("flid", "flid");
      ("faid", "faid");
      ("fpgid", "fpgid");
      ("year(date) AS year", "year(date)");
      ("month(date) AS month", "month(date)");
      ("qty", "qty");
    ]
  in
  let rec subsets = function
    | [] -> [ [] ]
    | x :: rest ->
        let r = subsets rest in
        r @ List.map (fun s -> x :: s) r
  in
  List.filter (fun s -> s <> []) (subsets dims)
  |> List.mapi (fun i keys ->
         ( Printf.sprintf "g_mv%d" i,
           Printf.sprintf
             "SELECT %s, COUNT(*) AS c, SUM(qty) AS sq FROM Trans GROUP BY %s"
             (String.concat ", " (List.map fst keys))
             (String.concat ", " (List.map snd keys)) ))

let rewrite_hot =
  {
    kind = Rewrite_hot;
    name = "rewrite_hot";
    scale = 1;
    summaries = ds_summaries;
    write_rate = 0.;
    trace_requests = 3000;
    replay_reads_per_write = 0;
  }

let adhoc_plan =
  {
    kind = Adhoc_plan;
    name = "adhoc_plan";
    scale = 1;
    summaries = perf6_summaries;
    write_rate = 0.;
    trace_requests = 1200;
    replay_reads_per_write = 0;
  }

let base_scan =
  {
    kind = Base_scan;
    name = "base_scan";
    scale = 2;
    summaries = ds_summaries;
    write_rate = 0.;
    trace_requests = 300;
    replay_reads_per_write = 0;
  }

let mixed_ingest =
  {
    kind = Mixed_ingest;
    name = "mixed_ingest";
    scale = 1;
    summaries = ds_summaries;
    write_rate = 10.;
    trace_requests = 1000;
    replay_reads_per_write = 17;
  }

let all = [ rewrite_hot; adhoc_plan; base_scan; mixed_ingest ]
let find name = List.find_opt (fun s -> s.name = name) all

let summaries_sql spec =
  String.concat ""
    (List.map
       (fun (n, q) -> Printf.sprintf "CREATE SUMMARY TABLE %s AS %s;\n" n q)
       spec.summaries)

(* ---------------- reads ---------------- *)

(* A seeded permutation of [arr], fixed per (seed, salt). *)
let permute ~seed ~salt arr =
  let rng = Random.State.make [| seed; salt |] in
  let a = Array.copy arr in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let ds_sqls = Array.of_list (List.map (fun (q : Ds.query) -> q.dq_sql) Ds.queries)

(* rewrite_hot leaves out store_product_extremes: sorting 2 000 rows of
   st_loc_product makes it 0.8 ms in-process, as long as three of the
   others together, and with it the executor takes over 70 % of the
   stream's in-process time, which is not the hot front end this workload
   is for. *)
let hot_sqls =
  Array.of_list
    (List.filter_map
       (fun (q : Ds.query) ->
         if q.dq_expect_rewrite && q.dq_name <> "store_product_extremes" then
           Some q.dq_sql
         else None)
       Ds.queries)

(* Per-request RNG: a stream is random-access. *)
let rng_for ~seed i = Random.State.make [| seed; i |]

let adhoc_sql rng =
  let r n = Random.State.int rng n in
  match r 4 with
  | 0 ->
      let a = 1 + r 100 in
      Printf.sprintf
        "SELECT flid, SUM(qty) AS s FROM Trans WHERE flid BETWEEN %d AND %d \
         GROUP BY flid"
        a
        (a + r 40)
  | 1 ->
      Printf.sprintf
        "SELECT fpgid, year(date) AS year, COUNT(*) AS c FROM Trans WHERE \
         fpgid >= %d AND faid <= %d GROUP BY fpgid, year(date)"
        (1 + r 20) (1 + r 80)
  | 2 ->
      let a = 1 + r 80 in
      Printf.sprintf
        "SELECT faid, month(date) AS month, SUM(qty) AS s FROM Trans WHERE \
         faid BETWEEN %d AND %d AND qty >= %d GROUP BY faid, month(date)"
        a
        (a + r 30)
        (1 + r 5)
  | _ ->
      Printf.sprintf
        "SELECT year(date) AS year, month(date) AS month, COUNT(*) AS c, \
         SUM(qty) AS s FROM Trans WHERE flid < %d AND fpgid > %d GROUP BY \
         year(date), month(date)"
        (2 + r 99) (r 19)

let discs = [| "0.0"; "0.05"; "0.15"; "0.25" |]

let base_sql rng =
  let r n = Random.State.int rng n in
  match r 4 with
  | 0 ->
      Printf.sprintf
        "SELECT year(date) AS year, SUM(qty * price * disc) AS given_away \
         FROM Trans WHERE disc > %s GROUP BY year(date)"
        discs.(r 3)
  | 1 ->
      let lo = 5 + (25 * r 16) in
      Printf.sprintf
        "SELECT country, COUNT(*) AS cnt, SUM(qty) AS units FROM Trans, Loc \
         WHERE flid = lid AND price BETWEEN %d AND %d GROUP BY country"
        lo
        (lo + 50 + (25 * r 4))
  | 2 ->
      Printf.sprintf
        "SELECT pgname, SUM(qty * price) AS gross, MAX(disc) AS max_disc FROM \
         Trans, PGroup WHERE fpgid = pgid AND price < %d GROUP BY pgname"
        (50 + (50 * r 9))
  | _ ->
      Printf.sprintf
        "SELECT flid, COUNT(*) AS cnt, MIN(price) AS lo FROM Trans WHERE disc \
         = %s AND qty >= %d GROUP BY flid"
        discs.(r 4) (1 + r 5)

(* The [i]-th read. *)
let read spec ~seed i =
  match spec.kind with
  | Rewrite_hot ->
      let qs = permute ~seed ~salt:1 hot_sqls in
      qs.(i mod Array.length qs)
  | Mixed_ingest ->
      let qs = permute ~seed ~salt:2 ds_sqls in
      qs.(i mod Array.length qs)
  | Adhoc_plan -> adhoc_sql (rng_for ~seed i)
  | Base_scan -> base_sql (rng_for ~seed i)

(* ---------------- writes ---------------- *)

(* Keys of the rows the writer inserts: far above any generated tid, and
   apart from the keys the replay's write probe uses. *)
let writer_tids = 100_000_000
let probe_tids = 200_000_000
let rows_per_insert = 4
let refresh_every = 50

(* The [k]-th insert's rows: valid foreign keys into the scale's Acct, Loc
   and PGroup, dates within the generated years. *)
let insert_rows ~seed ~scale ~tid_base k =
  let p = W.scaled scale in
  let rng = Random.State.make [| seed; 7919; k |] in
  let r n = Random.State.int rng n in
  let years = Array.of_list p.W.years in
  List.init rows_per_insert (fun j ->
      let price = Float.round ((5.0 +. Random.State.float rng 495.0) *. 100.) /. 100. in
      [|
        Data.Value.Int (tid_base + (rows_per_insert * k) + j);
        Data.Value.Int (1 + r (p.W.n_custs * p.W.accts_per_cust));
        Data.Value.Int (1 + r p.W.n_locs);
        Data.Value.Int (1 + r p.W.n_pgroups);
        Data.Value.date years.(r (Array.length years)) (1 + r 12) (1 + r 28);
        Data.Value.Int (1 + r 5);
        Data.Value.Float price;
        Data.Value.Float (float_of_string discs.(r 4));
      |])

let sql_literal = function
  | Data.Value.Int n -> string_of_int n
  | Data.Value.Float f -> Printf.sprintf "%.2f" f
  | Data.Value.Date d ->
      Printf.sprintf "DATE '%04d-%02d-%02d'" (d / 10000) (d / 100 mod 100)
        (d mod 100)
  | v -> invalid_arg ("Gen.sql_literal: " ^ Data.Value.to_string v)

let insert_sql rows =
  "INSERT INTO Trans VALUES "
  ^ String.concat ", "
      (List.map
         (fun row ->
           "(" ^ String.concat ", " (Array.to_list (Array.map sql_literal row)) ^ ")")
         rows)

(* The [k]-th write request of mixed_ingest: one insert, and after every
   [refresh_every]-th a refresh of the summary the inserts leave stale. *)
let write ~seed ~scale k =
  let ins = insert_sql (insert_rows ~seed ~scale ~tid_base:writer_tids k) in
  if (k + 1) mod refresh_every = 0 then
    ins ^ "; REFRESH SUMMARY TABLE st_sales_cube"
  else ins
