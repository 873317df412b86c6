(* The match golden: every site the navigator finds, with its compensation
   ([Mtypes.pp_result]) and its static certificate, for every pair of the
   pattern tests, every paper figure and every decision-support query
   against each of its summaries. The pattern tests check only the yes/no
   decision and the rewritten rows; this pins what the matcher builds, so
   a changed compensation or a lost certificate shows here first.

   The expected text is [match_golden.expected]. On a mismatch the test
   writes what it got to [match_golden.actual] beside it (in the build
   directory) and names the first line that differs. *)

open Helpers

let render_sites buf cat ~query ~ast =
  let sites = match_sql cat ~query ~ast in
  if sites = [] then Buffer.add_string buf "  no match\n";
  List.iter
    (fun { Astmatch.Navigator.site_box; site_result; site_proof } ->
      let fmt = Format.formatter_of_buffer buf in
      Format.pp_set_margin fmt 100_000;
      Format.pp_set_max_indent fmt 99_999;
      Format.fprintf fmt "  box %d: %a@." site_box Astmatch.Mtypes.pp_result
        site_result;
      Buffer.add_string buf
        (match site_proof with
        | Prove.Proved -> "    proof: proved\n"
        | Prove.Unknown why -> "    proof: unknown (" ^ why ^ ")\n"))
    sites

let golden_text () =
  let cat = Workload.Star_schema.catalog () in
  let buf = Buffer.create 65536 in
  let section title ~query ~ast =
    Printf.bprintf buf "== %s\n  query: %s\n  summary: %s\n" title query ast;
    render_sites buf cat ~query ~ast
  in
  List.iter
    (fun (name, pairs) ->
      List.iteri
        (fun i { Test_patterns.query; ast; _ } ->
          section (Printf.sprintf "patterns / %s #%d" name (i + 1)) ~query ~ast)
        pairs)
    Test_patterns.cases;
  List.iter
    (fun (c : Workload.Paper_queries.case) ->
      section ("paper / " ^ c.name) ~query:c.query ~ast:c.ast)
    Workload.Paper_queries.cases;
  List.iter
    (fun (q : Workload.Decision_support.query) ->
      List.iter
        (fun (mv, ast) ->
          section
            (Printf.sprintf "decision-support / %s vs %s" q.dq_name mv)
            ~query:q.dq_sql ~ast)
        Workload.Decision_support.summary_tables)
    Workload.Decision_support.queries;
  Buffer.contents buf

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let test_golden () =
  let expected = read_file "match_golden.expected" in
  let actual = golden_text () in
  if actual <> expected then begin
    Out_channel.with_open_bin "match_golden.actual" (fun oc ->
        Out_channel.output_string oc actual);
    let el = String.split_on_char '\n' expected in
    let al = String.split_on_char '\n' actual in
    let rec first_diff n = function
      | e :: es, a :: as_ -> if e = a then first_diff (n + 1) (es, as_) else (n, e, a)
      | e :: _, [] -> (n, e, "<end of output>")
      | [], a :: _ -> (n, "<end of golden>", a)
      | [], [] -> (n, "", "")
    in
    let n, e, a = first_diff 1 (el, al) in
    Alcotest.failf
      "match golden differs at line %d:\n  expected: %s\n  actual:   %s\n\
       (full output in match_golden.actual)"
      n e a
  end

let suite =
  [ Alcotest.test_case "match results and certificates" `Quick test_golden ]
