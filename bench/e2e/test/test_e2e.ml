(* The served end-to-end benchmark's own checks: its quantile rule, its
   run-set comparator, and the properties its workload generators promise. *)

module H = E2e.Harness
module Gen = E2e.Gen
module W = Workload.Star_schema
module V = Data.Value

let value = function
  | Ok q -> Some q.H.q_value
  | Error _ -> None

(* ---------------- quantiles ---------------- *)

let test_quantile_refusals () =
  let ints n = Array.init n float_of_int in
  Alcotest.(check bool) "no samples" true (H.quantile 0.5 [||] |> Result.is_error);
  Alcotest.(check bool) "p outside (0,1)" true
    (H.quantile 1.0 (ints 5000) |> Result.is_error);
  Alcotest.(check bool) "median of 19" true (H.quantile 0.5 (ints 19) |> Result.is_error);
  Alcotest.(check bool) "median of 20" true (H.quantile 0.5 (ints 20) |> Result.is_ok);
  Alcotest.(check bool) "p99 of 999" true (H.quantile 0.99 (ints 999) |> Result.is_error);
  Alcotest.(check bool) "p99 of 1000" true (H.quantile 0.99 (ints 1000) |> Result.is_ok);
  Alcotest.(check bool) "p98 of 500" true (H.quantile 0.98 (ints 500) |> Result.is_ok);
  Alcotest.(check bool) "p1 of 999" true (H.quantile 0.01 (ints 999) |> Result.is_error);
  match H.quantile 0.5 (ints 20) with
  | Ok q -> Alcotest.(check int) "sample count" 20 q.H.q_n
  | Error m -> Alcotest.fail m

let test_quantile_values () =
  (* statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25] *)
  let xs = [| 10.; 3.; 1.; 7.; 5.; 2.; 9.; 4.; 8.; 6. |] in
  let q p = value (H.quantile ~min_beyond:0 p xs) in
  Alcotest.(check (option (float 1e-9))) "q1" (Some 2.75) (q 0.25);
  Alcotest.(check (option (float 1e-9))) "q2" (Some 5.5) (q 0.5);
  Alcotest.(check (option (float 1e-9))) "q3" (Some 8.25) (q 0.75);
  Alcotest.(check (float 1e-9)) "iqr" 5.5 (H.iqr xs);
  Alcotest.(check (option (float 1e-9))) "single sample" (Some 4.)
    (value (H.quantile ~min_beyond:0 0.9 [| 4. |]));
  (* beyond the last interpolation point the exclusive method extrapolates,
     like Python's *)
  Alcotest.(check (option (float 1e-9))) "p95 of two" (Some 2.85)
    (value (H.quantile ~min_beyond:0 0.95 [| 1.; 2. |]));
  Alcotest.(check bool) "input untouched" true (xs.(0) = 10.)

(* ---------------- comparator ---------------- *)

let runs base step = Array.init 10 (fun i -> base +. (step *. float_of_int (i mod 3)))

let verdict ?(better = H.Lower) ?(bound = H.Share 0.1) parent change =
  H.verdict_to_string (H.verdict ~better ~bound ~parent ~change)

let test_verdicts () =
  let parent = runs 100. 1. in
  Alcotest.(check string) "clear gain" "better" (verdict parent (runs 80. 1.));
  Alcotest.(check string) "higher is better" "better"
    (verdict ~better:H.Higher parent (runs 120. 1.));
  Alcotest.(check string) "same" "unchanged" (verdict parent (runs 100. 1.));
  Alcotest.(check string) "within the bound" "unchanged" (verdict parent (runs 105. 1.));
  Alcotest.(check string) "beyond the bound" "worse" (verdict parent (runs 115. 1.));
  Alcotest.(check string) "gain needs ten pairs" "unchanged"
    (verdict (Array.sub parent 0 9) (Array.sub (runs 80. 1.) 0 9));
  (* a median gap inside the parent's own spread is no gain *)
  Alcotest.(check string) "gap inside spread" "unchanged"
    (verdict ~bound:(H.Share 0.5) (runs 100. 10.) (runs 90. 10.));
  (* spread wider than the bound: no claim either way... *)
  let noisy = Array.init 10 (fun i -> if i mod 2 = 0 then 70. else 130.) in
  Alcotest.(check string) "noisy" "unresolved" (verdict noisy (runs 100. 1.));
  (* ...unless every change run beats every parent run *)
  Alcotest.(check string) "noisy, all better" "unchanged" (verdict noisy (runs 60. 1.));
  Alcotest.(check string) "noisy, all worse" "worse" (verdict noisy (runs 150. 1.));
  let zeros = Array.make 10 0. in
  Alcotest.(check string) "absolute 0, still 0" "unchanged"
    (verdict ~bound:(H.Absolute 0.) zeros zeros);
  Alcotest.(check string) "absolute 0, one error" "worse"
    (verdict ~bound:(H.Absolute 0.) zeros (Array.make 10 1.));
  Alcotest.(check string) "unbounded, consistent loss" "worse"
    (verdict ~bound:H.Unbounded (Array.make 10 1.) (Array.make 10 2.))

let test_run_roundtrip () =
  let r =
    {
      H.r_workload = "rewrite_hot";
      r_seed = 3;
      r_seconds = 15;
      r_trace = false;
      r_correct = true;
      r_attempted = 1200;
      r_failed = 0;
      r_metrics = [ ("read_p50_ms", { H.v = 0.123456789; n = 1200 }) ];
    }
  in
  match Obs.Json.of_string (Obs.Json.to_string (H.run_to_json r)) with
  | Ok j -> Alcotest.(check bool) "round trip" true (H.run_of_json j = r)
  | Error m -> Alcotest.fail m

(* ---------------- generators ---------------- *)

let prefix spec ~seed n = List.init n (Gen.read spec ~seed)

let test_deterministic () =
  List.iter
    (fun (spec : Gen.spec) ->
      let a = prefix spec ~seed:7 200 and b = prefix spec ~seed:7 200 in
      Alcotest.(check (list string)) (spec.Gen.name ^ " repeats") a b;
      Alcotest.(check bool)
        (spec.Gen.name ^ " differs by seed")
        true
        (a <> prefix spec ~seed:8 200))
    Gen.all;
  let writes seed = List.init 100 (Gen.write ~seed ~scale:1) in
  Alcotest.(check (list string)) "writes repeat" (writes 7) (writes 7);
  Alcotest.(check bool) "writes differ by seed" true (writes 7 <> writes 8)

let test_adhoc_fingerprints () =
  (* a 15-second run sends about 10 000 requests; its first 2 000 already
     overflow the 256-entry plan cache *)
  let cat = W.catalog () in
  let fps = Hashtbl.create 2048 in
  List.iter
    (fun sql ->
      let g = Qgm.Builder.build cat (Sqlsyn.Parser.parse_query sql) in
      Hashtbl.replace fps (Qgm.Fingerprint.of_graph g) ())
    (prefix Gen.adhoc_plan ~seed:1 2000);
  Alcotest.(check bool)
    (Printf.sprintf "%d distinct fingerprints > 256" (Hashtbl.length fps))
    true
    (Hashtbl.length fps > 256)

let test_inserts_valid () =
  let tables = W.generate (W.scaled 1) in
  let keys table =
    let rel = List.assoc table tables in
    let tbl = Hashtbl.create 256 in
    List.iter (fun row -> Hashtbl.replace tbl row.(0) ()) (Data.Relation.rows rel);
    tbl
  in
  let accts = keys "Acct" and locs = keys "Loc" and groups = keys "PGroup" in
  let existing = keys "Trans" in
  let tids = Hashtbl.create 4096 in
  let years = (W.scaled 1).W.years in
  for k = 0 to 999 do
    List.iter
      (function
        | Sqlsyn.Ast.Insert { ins_table; ins_rows; _ } ->
            Alcotest.(check string) "into Trans" "Trans" ins_table;
            List.iter
              (fun exprs ->
                let v =
                  Array.of_list
                    (List.map
                       (function
                         | Sqlsyn.Ast.Lit v -> v
                         | _ -> Alcotest.fail "non-literal insert value")
                       exprs)
                in
                Alcotest.(check int) "arity" 8 (Array.length v);
                let fk what tbl x =
                  if not (Hashtbl.mem tbl x) then
                    Alcotest.failf "write %d: %s %s has no parent" k what
                      (V.to_string x)
                in
                fk "faid" accts v.(1);
                fk "flid" locs v.(2);
                fk "fpgid" groups v.(3);
                if Hashtbl.mem existing v.(0) || Hashtbl.mem tids v.(0) then
                  Alcotest.failf "write %d: tid %s is not fresh" k
                    (V.to_string v.(0));
                Hashtbl.replace tids v.(0) ();
                match V.year v.(4) with
                | V.Int y when List.mem y years -> ()
                | _ -> Alcotest.failf "write %d: date outside the data" k)
              ins_rows
        | Sqlsyn.Ast.Refresh_summary name ->
            Alcotest.(check string) "refreshes the cube" "st_sales_cube" name
        | _ -> Alcotest.fail "unexpected statement")
      (Sqlsyn.Parser.parse_script (Gen.write ~seed:1 ~scale:1 k))
  done

let () =
  Alcotest.run "e2e-bench"
    [
      ( "harness",
        [
          Alcotest.test_case "quantile refusals" `Quick test_quantile_refusals;
          Alcotest.test_case "quantile values" `Quick test_quantile_values;
          Alcotest.test_case "verdicts" `Quick test_verdicts;
          Alcotest.test_case "run record round trip" `Quick test_run_roundtrip;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "streams follow the seed" `Quick test_deterministic;
          Alcotest.test_case "adhoc_plan overflows the plan cache" `Quick
            test_adhoc_fingerprints;
          Alcotest.test_case "mixed_ingest inserts keep foreign keys" `Quick
            test_inserts_valid;
        ] );
    ]
