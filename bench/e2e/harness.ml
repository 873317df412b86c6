(* Timing, quantiles, metric definitions, run records and the run-set
   comparator shared by the served end-to-end benchmark and its tests. *)

module J = Obs.Json

(* ---------------- clock ---------------- *)

(* Bechamel's monotonic clock (CLOCK_MONOTONIC, nanoseconds): immune to
   wall-clock steps, unlike Unix.gettimeofday. *)
let now_ns () = Monotonic_clock.now ()
let ns_to_ms d = Int64.to_float d /. 1e6
let ms_since t0 = ns_to_ms (Int64.sub (now_ns ()) t0)
let s_since t0 = ms_since t0 /. 1000.

(* ---------------- samples ---------------- *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let a = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let length t = t.n
  let to_array t = Array.sub t.a 0 t.n
  let concat ts = Array.concat (List.map to_array ts)
end

(* ---------------- quantiles ---------------- *)

type quantile = { q_value : float; q_n : int }

(* The one quantile function. Interpolates like Python's
   statistics.quantiles (method "exclusive"), so a spread computed here
   matches one computed from the same values there. A percentile is refused
   when fewer than [min_beyond] samples lie beyond it on its tail side: a
   p99 needs 1000 samples, a median 20. Run-level quartiles (10 runs per
   side) pass [~min_beyond:0]. *)
let quantile ?(min_beyond = 10) p xs =
  let n = Array.length xs in
  if n = 0 then Error "no samples"
  else if p <= 0. || p >= 1. then Error (Printf.sprintf "percentile %g outside (0, 1)" p)
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let pos = p *. float_of_int (n + 1) in
    let beyond =
      if p >= 0.5 then n - int_of_float (Float.floor pos)
      else int_of_float (Float.ceil pos) - 1
    in
    if beyond < min_beyond then
      Error
        (Printf.sprintf "p%g of %d samples has %d beyond it (needs %d)"
           (100. *. p) n beyond min_beyond)
    else if n = 1 then Ok { q_value = s.(0); q_n = 1 }
    else
      let j = max 1 (min (n - 1) (int_of_float (Float.floor pos))) in
      let v = s.(j - 1) +. ((pos -. float_of_int j) *. (s.(j) -. s.(j - 1))) in
      Ok { q_value = v; q_n = n }
  end

let median_exn xs =
  match quantile ~min_beyond:0 0.5 xs with
  | Ok q -> q.q_value
  | Error m -> invalid_arg ("median: " ^ m)

let mean xs =
  if Array.length xs = 0 then invalid_arg "mean: no samples"
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* Distance between the first and third quartile. *)
let iqr xs =
  match (quantile ~min_beyond:0 0.25 xs, quantile ~min_beyond:0 0.75 xs) with
  | Ok q1, Ok q3 -> q3.q_value -. q1.q_value
  | _ -> 0.

(* ---------------- metric definitions ---------------- *)

type better = Lower | Higher

(* [Share b]: may worsen by b times the parent's median. [Absolute a]: may
   worsen by a in the metric's own unit (0 for counts that must stay 0).
   [Unbounded]: a layer metric, reported but never a regression. *)
type bound = Share of float | Absolute of float | Unbounded

type metric = {
  m_name : string;
  m_unit : string;
  m_better : better;
  m_bound : bound;
  m_listed : bool;
      (** on the benchmark's last line and in BENCHMARK.json, which take only
          metrics that every workload reports, that are never 0, and whose
          spread over ten runs stays within their bound (README.md) *)
}

let m ?(listed = true) m_name m_unit m_better m_bound =
  { m_name; m_unit; m_better; m_bound; m_listed = listed }

(* What a client of astql-server sees. Measured only in untraced runs. The
   write and recovery metrics exist only where there are writes
   (mixed_ingest); error_rate and wrong_answers read 0 on a correct run and
   reach the last line as its [failed] and [correct] fields; the read
   timings spread wider than their bound across runs on a shared 2-vCPU
   machine. write_p99_ms needs 1000 writes, more than a window of the
   default length holds, so write_p90_ms, the highest percentile those
   writes support, is reported beside it. *)
let end_to_end =
  [
    m "setup_s" "s" Lower (Share 0.10);
    m ~listed:false "read_p50_ms" "ms" Lower (Share 0.10);
    m ~listed:false "read_p99_ms" "ms" Lower (Share 0.10);
    m ~listed:false "read_rps" "1/s" Higher (Share 0.10);
    m ~listed:false "write_p50_ms" "ms" Lower (Share 0.10);
    m ~listed:false "write_p90_ms" "ms" Lower (Share 0.10);
    m ~listed:false "write_p99_ms" "ms" Lower (Share 0.10);
    m ~listed:false "recover_s" "s" Lower (Share 0.10);
    m "rss_peak_mb" "MB" Lower (Share 0.10);
    m ~listed:false "error_rate" "ratio" Lower (Absolute 0.);
    m ~listed:false "wrong_answers" "count" Lower (Absolute 0.);
  ]

(* One layer each, from the traced in-process replay and the traced run's
   own load generator. *)
let per_layer =
  [
    m "server.decode_us" "us" Lower Unbounded;
    m "server.encode_us" "us" Lower Unbounded;
    m "server.transport_ms" "ms" Lower Unbounded;
    m "sqlsyn.parse_us" "us" Lower Unbounded;
    m "qgm.build_us" "us" Lower Unbounded;
    m "qgm.fingerprint_us" "us" Lower Unbounded;
    m "plancache.plan_hit_us" "us" Lower Unbounded;
    m "plancache.plan_miss_us" "us" Lower Unbounded;
    m "plancache.hit_ratio" "ratio" Higher Unbounded;
    m "plancache.rewrite_ratio" "ratio" Higher Unbounded;
    m "astmatch.match_calls_per_miss" "count" Lower Unbounded;
    m "prove.attempts_per_miss" "count" Lower Unbounded;
    m "engine.exec_us" "us" Lower Unbounded;
    m "engine.rows_per_result" "ratio" Lower Unbounded;
    m "engine.decode_ms" "ms" Lower Unbounded;
    m "engine.decode_hit_ratio" "ratio" Higher Unbounded;
    m "mvstore.session_self_us" "us" Lower Unbounded;
    m "mvstore.maint_us" "us" Lower Unbounded;
    m "mvstore.write_us" "us" Lower Unbounded;
    m "mvstore.refresh_ms" "ms" Lower Unbounded;
    m "durable.wal_us" "us" Lower Unbounded;
    m "durable.checkpoint_ms" "ms" Lower Unbounded;
    m "durable.fsyncs_per_write" "ratio" Lower Unbounded;
    m "durable.write_bytes_per_row" "B" Lower Unbounded;
    m "loadgen.lag_p99_ms" "ms" Lower Unbounded;
    m "trace.unattributed_share" "ratio" Lower Unbounded;
  ]

let find_metric name =
  List.find_opt (fun x -> x.m_name = name) (end_to_end @ per_layer)

(* ---------------- run records ---------------- *)

type value = { v : float; n : int  (** samples behind it; 0 = a count *) }

let count v = { v; n = 0 }

(* [name] with the [p] quantile of [xs], or nothing (and a note on stderr)
   when the samples do not support that percentile. *)
let percentile name p xs =
  match quantile p xs with
  | Ok q -> [ (name, { v = q.q_value; n = q.q_n }) ]
  | Error m ->
      Printf.eprintf "e2e: %s not reported: %s\n%!" name m;
      []

type run = {
  r_workload : string;
  r_seed : int;
  r_seconds : int;
  r_trace : bool;
  r_correct : bool;
  r_attempted : int;
  r_failed : int;
  r_metrics : (string * value) list;
}

let unit_of name =
  match find_metric name with Some x -> x.m_unit | None -> "ratio"

let run_to_json r =
  J.Obj
    [
      ("workload", J.Str r.r_workload);
      ("seed", J.Int r.r_seed);
      ("seconds", J.Int r.r_seconds);
      ("trace", J.Bool r.r_trace);
      ("correct", J.Bool r.r_correct);
      ("attempted", J.Int r.r_attempted);
      ("failed", J.Int r.r_failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun (name, x) ->
               ( name,
                 J.Obj
                   [
                     ("value", J.Float x.v);
                     ("unit", J.Str (unit_of name));
                     ("n", J.Int x.n);
                   ] ))
             r.r_metrics) );
    ]

let num = function
  | Some (J.Float f) -> Some f
  | Some (J.Int i) -> Some (float_of_int i)
  | _ -> None

let run_of_json j =
  let str k = match J.member k j with Some (J.Str s) -> s | _ -> "" in
  let int k = match J.member k j with Some (J.Int i) -> i | _ -> 0 in
  let bool k = match J.member k j with Some (J.Bool b) -> b | _ -> false in
  let metrics =
    match J.member "metrics" j with
    | Some (J.Obj kvs) ->
        List.filter_map
          (fun (name, mj) ->
            match num (J.member "value" mj) with
            | Some v ->
                let n =
                  match J.member "n" mj with Some (J.Int n) -> n | _ -> 0
                in
                Some (name, { v; n })
            | None -> None)
          kvs
    | _ -> []
  in
  {
    r_workload = str "workload";
    r_seed = int "seed";
    r_seconds = int "seconds";
    r_trace = bool "trace";
    r_correct = bool "correct";
    r_attempted = int "attempted";
    r_failed = int "failed";
    r_metrics = metrics;
  }

(* A run set is a JSON array of run records; a single record is a set of
   one. *)
let load_runs path =
  let text = In_channel.with_open_text path In_channel.input_all in
  match J.of_string text with
  | Ok (J.List js) -> List.map run_of_json js
  | Ok (J.Obj _ as j) -> [ run_of_json j ]
  | Ok _ -> failwith (path ^ ": expected a run record or an array of them")
  | Error m -> failwith (path ^ ": " ^ m)

let save_runs path runs = J.to_file path (J.List (List.map run_to_json runs))

(* The line the benchmark prints last: [metrics] holds exactly [names]. *)
let summary_line r names =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool r.r_correct);
         ("attempted", J.Int r.r_attempted);
         ("failed", J.Int r.r_failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun name ->
                  let v =
                    match List.assoc_opt name r.r_metrics with
                    | Some x -> J.Float x.v
                    | None -> J.Null
                  in
                  (name, J.Obj [ ("value", v); ("unit", J.Str (unit_of name)) ]))
                names) );
       ])

(* ---------------- comparing two run sets ---------------- *)

type verdict = Better | Worse | Unchanged | Unresolved

let verdict_to_string = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* Runs pair up in order (run i of the parent with run i of the change). A
   gain needs at least ten pairs, wins in nine tenths of them (ties count
   for neither) and a median gap wider than the parent's own quartile
   spread. Otherwise the metric is worse when its median moved
   the wrong way by more than its bound; when the parent's spread alone is
   wider than the bound the metric is unresolved, unless every change run
   reads better than every parent run (or, for a regression, every one
   reads worse). *)
let verdict ~better ~bound ~parent ~change =
  let n = min (Array.length parent) (Array.length change) in
  if n = 0 then Unresolved
  else begin
    let gain a b = match better with Lower -> a -. b | Higher -> b -. a in
    let mp = median_exn parent and mc = median_exn change in
    let d = gain mp mc in
    let spread = iqr parent in
    let wins = ref 0 and losses = ref 0 in
    for i = 0 to n - 1 do
      let g = gain parent.(i) change.(i) in
      if g > 0. then incr wins else if g < 0. then incr losses
    done;
    let all_better =
      Array.for_all (fun c -> Array.for_all (fun p -> gain p c > 0.) parent) change
    and all_worse =
      Array.for_all (fun c -> Array.for_all (fun p -> gain p c < 0.) parent) change
    in
    let clear k = n >= 10 && float_of_int k >= 0.9 *. float_of_int n in
    if clear !wins && d > spread then Better
    else
      match bound with
      | Absolute a -> if -.d > a then Worse else Unchanged
      | Unbounded -> if clear !losses && -.d > spread then Worse else Unchanged
      | Share b ->
          let scale = Float.abs mp in
          let worse_by = if scale > 0. then -.d /. scale else -.d in
          let rel_spread = if scale > 0. then spread /. scale else spread in
          if rel_spread > b then
            if all_better then Unchanged
            else if all_worse && worse_by > b then Worse
            else Unresolved
          else if worse_by > b then Worse
          else Unchanged
  end

(* One row per (workload, metric) present in both sets, workloads by
   name. *)
let compare_sets ~parent ~change =
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.r_workload) parent)
  in
  List.concat_map
    (fun w ->
      let ps = List.filter (fun r -> r.r_workload = w) parent
      and cs = List.filter (fun r -> r.r_workload = w) change in
      let values set name =
        Array.of_list
          (List.filter_map
             (fun r -> Option.map (fun x -> x.v) (List.assoc_opt name r.r_metrics))
             set)
      in
      List.filter_map
        (fun mt ->
          let p = values ps mt.m_name and c = values cs mt.m_name in
          if Array.length p = 0 || Array.length c = 0 then None
          else
            Some
              ( w,
                mt,
                p,
                c,
                verdict ~better:mt.m_better ~bound:mt.m_bound ~parent:p ~change:c ))
        (end_to_end @ per_layer))
    workloads

let print_comparison rows =
  Printf.printf "%-13s %-40s %12s %12s %12s %12s %6s  %s\n" "workload" "metric"
    "parent.med" "parent.iqr" "change.med" "change.iqr" "pairs" "verdict";
  List.iter
    (fun (w, mt, p, c, v) ->
      Printf.printf "%-13s %-40s %12.4f %12.4f %12.4f %12.4f %6d  %s\n" w
        (mt.m_name ^ " [" ^ mt.m_unit ^ "]")
        (median_exn p) (iqr p) (median_exn c) (iqr c)
        (min (Array.length p) (Array.length c))
        (verdict_to_string v))
    rows
