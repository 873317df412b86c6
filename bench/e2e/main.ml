(* The served end-to-end benchmark (see bench/e2e/README.md).

     dune exec bench/e2e/main.exe -- [--workload NAME]... [--seed N]
                                     [--seconds N] [--trace [0|1]]
     dune exec bench/e2e/main.exe -- compare PARENT.json... -- CHANGE.json...

   Run from the repository root. A run prints every metric by name with its
   unit, writes bench/e2e/out/results.json, and ends with one JSON line:
   {"correct", "attempted", "failed", "metrics"} holding the end-to-end
   metrics (untraced) or the per-layer metrics (--trace). It exits non-zero
   when any answer was wrong. *)

let () = Server_dep.built

module H = E2e.Harness
module Gen = E2e.Gen

let out_dir = Filename.concat "bench" (Filename.concat "e2e" "out")

let usage () =
  prerr_endline
    "usage: main.exe [--workload NAME]... [--seed N] [--seconds N] [--trace \
     [0|1]]\n\
    \       main.exe compare PARENT.json... -- CHANGE.json...";
  exit 2

type opts = {
  workloads : Gen.spec list;
  seed : int;
  seconds : int;
  trace : bool;
}

let parse args =
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n when n >= 0 -> n
    | _ ->
        Printf.eprintf "%s expects a non-negative integer, got %S\n" flag v;
        exit 2
  in
  let rec go o = function
    | [] -> o
    | "--workload" :: name :: rest -> (
        match Gen.find name with
        | Some s -> go { o with workloads = o.workloads @ [ s ] } rest
        | None ->
            Printf.eprintf "unknown workload %S (expected one of: %s)\n" name
              (String.concat ", " (List.map (fun s -> s.Gen.name) Gen.all));
            exit 2)
    | "--seed" :: v :: rest -> go { o with seed = int_arg "--seed" v } rest
    | "--seconds" :: v :: rest ->
        go { o with seconds = max 1 (int_arg "--seconds" v) } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { o with trace = v = "1" } rest
    | "--trace" :: rest -> go { o with trace = true } rest
    | a :: _ ->
        Printf.eprintf "unknown argument %S\n" a;
        usage ()
  in
  let o = go { workloads = []; seed = 1; seconds = 15; trace = false } args in
  if o.workloads = [] then { o with workloads = Gen.all } else o

(* ---------------- one workload ---------------- *)

let run_one ~exe o (spec : Gen.spec) =
  let dir = Filename.concat out_dir spec.Gen.name in
  Printf.eprintf "e2e: %s (seed %d, %d s%s)\n%!" spec.Gen.name o.seed o.seconds
    (if o.trace then ", traced" else "");
  let so =
    E2e.Served.run ~exe ~dir spec ~seed:o.seed ~seconds:o.seconds
      ~setups:(if o.trace then 1 else 7)
  in
  let module S = E2e.Served in
  let reads = H.Samples.to_array so.S.o_reads.S.lat in
  let stats = so.S.o_reads :: Option.to_list so.S.o_writes in
  let lag = H.Samples.concat (List.map (fun st -> st.S.lag) stats) in
  let read_p50 = H.percentile "read_p50_ms" 0.5 reads in
  let lag_p99 = H.percentile "loadgen.lag_p99_ms" 0.99 lag in
  let metrics =
    if not o.trace then
      let writes =
        match so.S.o_writes with
        | None -> []
        | Some st ->
            let w = H.Samples.to_array st.S.lat in
            H.percentile "write_p50_ms" 0.5 w
            @ H.percentile "write_p90_ms" 0.90 w
            @ H.percentile "write_p99_ms" 0.99 w
            @ [
                ( "recover_s",
                  {
                    H.v = H.median_exn so.S.o_recover_s;
                    n = Array.length so.S.o_recover_s;
                  } );
              ]
      in
      [
        ( "setup_s",
          { H.v = H.median_exn so.S.o_setup_s; n = Array.length so.S.o_setup_s } );
      ]
      @ read_p50
      @ H.percentile "read_p99_ms" 0.99 reads
      @ [
          ( "read_rps",
            {
              H.v = float_of_int (Array.length reads) /. so.S.o_read_elapsed_s;
              n = Array.length reads;
            } );
        ]
      @ writes
      @ [
          ("rss_peak_mb", H.count so.S.o_rss_mb);
          ( "error_rate",
            H.count (float_of_int so.S.o_failed /. float_of_int (max 1 so.S.o_attempted)) );
          ("wrong_answers", H.count (float_of_int so.S.o_wrong));
        ]
      @ lag_p99
    else begin
      let trace_file =
        Filename.concat out_dir (Printf.sprintf "trace-%s.jsonl" spec.Gen.name)
      in
      let r = E2e.Replay.run ~dir ~trace_file spec ~seed:o.seed in
      List.iter
        (fun (layer, share) ->
          Printf.printf "%s share.%s %.4f\n" spec.Gen.name layer share)
        r.E2e.Replay.shares;
      let transport =
        List.map
          (fun (_, p) ->
            ( "server.transport_ms",
              { H.v = p.H.v -. r.E2e.Replay.exec_sql_p50_ms; n = p.H.n } ))
          read_p50
      in
      r.E2e.Replay.metrics @ transport @ lag_p99
    end
  in
  List.iter
    (fun (name, x) ->
      Printf.printf "%s %s %.6g %s (n=%d)\n" spec.Gen.name name x.H.v
        (H.unit_of name) x.H.n)
    metrics;
  {
    H.r_workload = spec.Gen.name;
    r_seed = o.seed;
    r_seconds = o.seconds;
    r_trace = o.trace;
    r_correct = so.S.o_wrong = 0;
    r_attempted = so.S.o_attempted;
    r_failed = so.S.o_failed;
    r_metrics = metrics;
  }

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let bench o =
  if not (Sys.file_exists (Filename.concat "bench" "e2e")) then begin
    prerr_endline "e2e: run from the repository root";
    exit 2
  end;
  (* main.exe sits in <build>/default/bench/e2e/ *)
  let exe =
    List.fold_left Filename.concat
      (Filename.dirname
         (Filename.dirname (Filename.dirname Sys.executable_name)))
      [ "bin"; "astql_server.exe" ]
  in
  if not (Sys.file_exists exe) then begin
    Printf.eprintf "e2e: %s is missing; build it with dune build\n" exe;
    exit 2
  end;
  mkdir_p out_dir;
  let runs = List.map (run_one ~exe o) o.workloads in
  H.save_runs (Filename.concat out_dir "results.json") runs;
  let listed =
    List.filter_map
      (fun mt -> if mt.H.m_listed then Some mt.H.m_name else None)
      (if o.trace then H.per_layer else H.end_to_end)
  in
  let missing =
    List.exists
      (fun r ->
        List.exists (fun n -> not (List.mem_assoc n r.H.r_metrics)) listed)
      runs
  in
  List.iter (fun r -> print_endline (H.summary_line r listed)) runs;
  if List.exists (fun r -> not r.H.r_correct) runs then exit 1;
  if missing then exit 3

let () =
  (* the in-process replay must run the program the server runs: no
     ASTQL_* knob may reach either *)
  if
    Array.exists
      (String.starts_with ~prefix:"ASTQL_")
      (Unix.environment ())
  then Unix.execve Sys.executable_name Sys.argv (E2e.Served.clean_env ());
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: files -> (
      let rec split parent = function
        | "--" :: change -> Some (List.rev parent, change)
        | f :: rest -> split (f :: parent) rest
        | [] -> None
      in
      match split [] files with
      | Some ((_ :: _ as parent), (_ :: _ as change)) ->
          let load fs = List.concat_map H.load_runs fs in
          H.print_comparison
            (H.compare_sets ~parent:(load parent) ~change:(load change))
      | _ -> usage ())
  | args -> bench (parse args)
