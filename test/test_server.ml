(* The serving stack end to end: JSON parsing, wire round-trips, typed
   errors, backpressure, and fault containment — real sockets, real
   domains. *)

module J = Obs.Json
module Sess = Mvstore.Session
module V = Data.Value

(* --- JSON parser -------------------------------------------------------- *)

let test_json_parse () =
  let ok s = match J.of_string s with Ok v -> v | Error e -> Alcotest.fail e in
  let err s =
    match J.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("should not parse: " ^ s)
  in
  (match ok {| {"a": [1, -2.5, true, null, "x\ny"], "b": {}} |} with
  | J.Obj [ ("a", J.List [ J.Int 1; J.Float f; J.Bool true; J.Null; J.Str s ]);
            ("b", J.Obj []) ] ->
      Alcotest.(check (float 0.)) "float" (-2.5) f;
      Alcotest.(check string) "escape" "x\ny" s
  | other -> Alcotest.fail ("unexpected shape: " ^ J.to_string other));
  (match ok {|"é😀"|} with
  | J.Str s -> Alcotest.(check string) "utf8" "\xc3\xa9\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "expected string");
  (match ok "1e3" with
  | J.Float f -> Alcotest.(check (float 0.)) "exp" 1000. f
  | _ -> Alcotest.fail "1e3 should be a float");
  (match ok "42" with
  | J.Int 42 -> ()
  | _ -> Alcotest.fail "42 should be an int");
  err "{";
  err "[1,]";
  err "nulll";
  err "1 2";
  err {|{"a" 1}|};
  err {|"\ud800"|}

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("id", J.Int 7);
        ("x", J.Float 0.1);
        ("s", J.Str "a\"b\\c\n\t");
        ("l", J.List [ J.Null; J.Bool false ]);
      ]
  in
  match J.of_string (J.to_string v) with
  | Ok v' -> Alcotest.(check string) "round trip" (J.to_string v) (J.to_string v')
  | Error e -> Alcotest.fail e

let test_value_roundtrip () =
  let vals =
    [
      V.Null; V.Int (-3); V.Float 1.5; V.Float Float.nan;
      V.Float Float.infinity; V.Str "héllo"; V.Bool true; V.date 2024 2 29;
    ]
  in
  List.iter
    (fun v ->
      match Server.Wire.value_of_json (Server.Wire.value_to_json v) with
      | Ok v' ->
          if not (V.is_null v) || not (V.is_null v') then
            Alcotest.(check bool)
              ("round trip " ^ V.to_string v)
              true
              (V.compare v v' = 0 || (v <> v && v' <> v'))
      | Error e -> Alcotest.fail e)
    vals

(* --- a live server ------------------------------------------------------ *)

let seed_shared () =
  let sn = Sess.create () in
  ignore
    (Sess.exec_sql sn
       "CREATE TABLE sales (region VARCHAR NOT NULL, amount INT NOT NULL); \
        INSERT INTO sales VALUES ('east', 10), ('east', 20), ('west', 5); \
        CREATE SUMMARY TABLE sales_by_region AS SELECT region, SUM(amount) \
        AS total, COUNT(*) AS n FROM sales GROUP BY region;");
  Sess.share sn

let with_server ?(domains = 2) ?(queue_depth = 4) ?degrade_watermark
    ?retry_after_ms ?idle_timeout_ms ?io_timeout_ms ?request_deadline_ms
    ?shared f =
  let shared = match shared with Some s -> s | None -> seed_shared () in
  let srv =
    Server.Listener.start
      (Server.Listener.config
         ~addr:(Server.Listener.Tcp ("127.0.0.1", 0))
         ~domains ~queue_depth ~backlog:16 ?degrade_watermark ?retry_after_ms
         ?idle_timeout_ms ?io_timeout_ms ?request_deadline_ms ())
      ~mk_session:(fun () -> Sess.attach shared)
  in
  let addr =
    Server.Listener.Tcp
      ("127.0.0.1", Option.get (Server.Listener.port srv))
  in
  Fun.protect ~finally:(fun () -> Server.Listener.stop srv) (fun () -> f addr)

let expect_table = function
  | Server.Wire.Table (cols, rows) -> (cols, rows)
  | _ -> Alcotest.fail "expected a table outcome"

let test_round_trip () =
  with_server (fun addr ->
      let c = Server.Client.connect_addr addr in
      Fun.protect ~finally:(fun () -> Server.Client.close c) (fun () ->
          (match Server.Client.request c "SELECT region, SUM(amount) AS total \
                                          FROM sales GROUP BY region ORDER BY \
                                          region;" with
          | Ok r -> (
              Alcotest.(check bool) "has latency" true (r.Server.Wire.rp_ms >= 0.);
              match r.Server.Wire.rp_results with
              | [ t ] ->
                  let cols, rows = expect_table t in
                  Alcotest.(check (list string)) "columns"
                    [ "region"; "total" ] cols;
                  Alcotest.(check int) "rows" 2 (List.length rows);
                  (match rows with
                  | [ [| V.Str "east"; V.Int 30 |]; [| V.Str "west"; V.Int 5 |] ]
                    -> ()
                  | _ -> Alcotest.fail "wrong rows")
              | _ -> Alcotest.fail "expected one outcome")
          | Error e -> Alcotest.fail (Server.Wire.error_to_string e));
          (* multi-statement script in one request *)
          match
            Server.Client.request c
              "CREATE TABLE t2 (a INT); INSERT INTO t2 VALUES (1), (2); \
               SELECT COUNT(*) AS n FROM t2;"
          with
          | Ok r -> (
              Alcotest.(check int) "three outcomes" 3
                (List.length r.Server.Wire.rp_results);
              match List.rev r.Server.Wire.rp_results with
              | last :: _ -> (
                  match expect_table last with
                  | _, [ [| V.Int 2 |] ] -> ()
                  | _ -> Alcotest.fail "count wrong")
              | [] -> Alcotest.fail "no outcomes")
          | Error e -> Alcotest.fail (Server.Wire.error_to_string e)))

let test_dml_visible_across_connections () =
  with_server (fun addr ->
      let a = Server.Client.connect_addr addr in
      (match
         Server.Client.request a "INSERT INTO sales VALUES ('north', 7);"
       with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Server.Wire.error_to_string e));
      Server.Client.close a;
      let b = Server.Client.connect_addr addr in
      Fun.protect ~finally:(fun () -> Server.Client.close b) (fun () ->
          match
            Server.Client.request b
              "SELECT COUNT(*) AS n FROM sales WHERE region = 'north';"
          with
          | Ok r -> (
              match r.Server.Wire.rp_results with
              | [ t ] -> (
                  match expect_table t with
                  | _, [ [| V.Int 1 |] ] -> ()
                  | _ -> Alcotest.fail "published write not visible")
              | _ -> Alcotest.fail "expected one outcome")
          | Error e -> Alcotest.fail (Server.Wire.error_to_string e)))

let test_typed_errors () =
  with_server (fun addr ->
      let c = Server.Client.connect_addr addr in
      Fun.protect ~finally:(fun () -> Server.Client.close c) (fun () ->
          (match Server.Client.request c "SELEC oops" with
          | Error e ->
              Alcotest.(check string) "code" "session_error"
                e.Server.Wire.we_code;
              Alcotest.(check (option string)) "statement echoed"
                (Some "SELEC oops") e.Server.Wire.we_statement;
              Alcotest.(check bool) "msg nonempty" true
                (String.length e.Server.Wire.we_msg > 0)
          | Ok _ -> Alcotest.fail "bad SQL must fail");
          (* a failed statement must not poison the connection *)
          (match Server.Client.request c "SELECT COUNT(*) AS n FROM sales;" with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (Server.Wire.error_to_string e));
          (* a failed DML publishes nothing *)
          (match
             Server.Client.request c
               "INSERT INTO sales VALUES ('torn', 1), ('torn', NULL);"
           with
          | Error e ->
              Alcotest.(check string) "code" "session_error"
                e.Server.Wire.we_code
          | Ok _ -> Alcotest.fail "NOT NULL violation must fail");
          match
            Server.Client.request c
              "SELECT region, COUNT(*) AS n FROM sales WHERE region = \
               'torn' GROUP BY region;"
          with
          | Ok r -> (
              match r.Server.Wire.rp_results with
              | [ t ] -> (
                  match expect_table t with
                  | _, [] -> ()
                  | _ -> Alcotest.fail "failed statement leaked rows")
              | _ -> Alcotest.fail "expected one outcome")
          | Error e -> Alcotest.fail (Server.Wire.error_to_string e)))

let test_bad_request_line () =
  with_server (fun addr ->
      (* speak raw protocol: not JSON at all *)
      let fd =
        match addr with
        | Server.Listener.Tcp (h, p) ->
            let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_of_string h, p));
            s
        | _ -> Alcotest.fail "tcp expected"
      in
      let io = Server.Lineio.make fd in
      Server.Lineio.write_line io "this is not json";
      (match Server.Lineio.read_line io with
      | Some line -> (
          match Server.Wire.response_of_line line with
          | Ok (Server.Wire.Failed (_, e)) ->
              Alcotest.(check string) "code" "bad_request"
                e.Server.Wire.we_code
          | _ -> Alcotest.fail "expected typed bad_request")
      | None -> Alcotest.fail "no response");
      (* missing sql field *)
      Server.Lineio.write_line io {|{"id": 1}|};
      (match Server.Lineio.read_line io with
      | Some line -> (
          match Server.Wire.response_of_line line with
          | Ok (Server.Wire.Failed (_, e)) ->
              Alcotest.(check string) "code" "bad_request"
                e.Server.Wire.we_code
          | _ -> Alcotest.fail "expected typed bad_request")
      | None -> Alcotest.fail "no response");
      Server.Lineio.close io)

let test_overload_typed_rejection () =
  with_server ~domains:1 ~queue_depth:1 (fun addr ->
      let a = Server.Client.connect_addr addr in
      (* completing a request proves the single worker is bound to A *)
      (match Server.Client.request a "SELECT COUNT(*) AS n FROM sales;" with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Server.Wire.error_to_string e));
      let b = Server.Client.connect_addr addr in
      (* B occupies the one queue slot; C must be shed with a typed error *)
      let c = Server.Client.connect_addr addr in
      (match Server.Client.request c "SELECT COUNT(*) AS n FROM sales;" with
      | Error e ->
          Alcotest.(check string) "code" "overloaded" e.Server.Wire.we_code
      | Ok _ -> Alcotest.fail "expected overloaded"
      | exception _ ->
          (* rejection may close before our request line is read *)
          ());
      Server.Client.close c;
      (* free the worker: A hangs up, queued B gets served *)
      Server.Client.close a;
      (match Server.Client.request b "SELECT COUNT(*) AS n FROM sales;" with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Server.Wire.error_to_string e));
      Server.Client.close b)

let test_accept_fault_is_contained () =
  with_server ~domains:1 ~queue_depth:4 (fun addr ->
      Guard.Fault.disarm_all ();
      Guard.Fault.arm Guard.Fault.Accept ~after:2;
      Fun.protect ~finally:Guard.Fault.disarm_all (fun () ->
          let q c =
            Server.Client.request c "SELECT COUNT(*) AS n FROM sales;"
          in
          let c1 = Server.Client.connect_addr addr in
          (match q c1 with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (Server.Wire.error_to_string e));
          Server.Client.close c1;
          (* the second connection's handler is killed by the injected
             fault; the client just sees a hangup *)
          let c2 = Server.Client.connect_addr addr in
          (match q c2 with
          | Ok _ -> Alcotest.fail "faulted connection should not answer"
          | Error _ -> ()
          | exception _ -> ());
          Server.Client.close c2;
          (* and the server is still alive for the next one *)
          let c3 = Server.Client.connect_addr addr in
          (match q c3 with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (Server.Wire.error_to_string e));
          Server.Client.close c3))

let test_unix_socket_and_rewrite_opt () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "astql_test_%d.sock" (Unix.getpid ()))
  in
  let shared = seed_shared () in
  let srv =
    Server.Listener.start
      (Server.Listener.config
         ~addr:(Server.Listener.Unix_path path)
         ~domains:1 ~queue_depth:2 ~backlog:8 ())
      ~mk_session:(fun () -> Sess.attach shared)
  in
  Fun.protect ~finally:(fun () -> Server.Listener.stop srv) (fun () ->
      let c = Server.Client.connect path in
      Fun.protect ~finally:(fun () -> Server.Client.close c) (fun () ->
          let sql =
            "EXPLAIN REWRITE SELECT region, SUM(amount) AS total FROM sales \
             GROUP BY region;"
          in
          let plan_of r =
            match r.Server.Wire.rp_results with
            | [ Server.Wire.Plan p ] -> p
            | _ -> Alcotest.fail "expected a plan outcome"
          in
          let with_rw =
            match Server.Client.request c sql with
            | Ok r -> plan_of r
            | Error e -> Alcotest.fail (Server.Wire.error_to_string e)
          in
          let contains hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec go i =
              i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) "rewrites against the summary" true
            (contains with_rw "sales_by_region");
          (match Server.Client.request c ~rewrite:false sql with
          | Ok r ->
              let without = plan_of r in
              Alcotest.(check bool) "opts.rewrite=false suppresses routing"
                true (without <> with_rw)
          | Error e -> Alcotest.fail (Server.Wire.error_to_string e));
          (* the executed plan (EXPLAIN) shows routing: the override holds
             for its own request only, and the next plain request on the
             same connection routes through the summary again *)
          let explain ?rewrite () =
            match
              Server.Client.request c ?rewrite
                "EXPLAIN SELECT region, SUM(amount) AS total FROM sales \
                 GROUP BY region;"
            with
            | Ok r -> plan_of r
            | Error e -> Alcotest.fail (Server.Wire.error_to_string e)
          in
          Alcotest.(check bool) "opts.rewrite=false plans the base table"
            false
            (contains (explain ~rewrite:false ()) "sales_by_region");
          Alcotest.(check bool) "next plain request routes again" true
            (contains (explain ()) "sales_by_region")));
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

(* --- adversarial request decoding --------------------------------------- *)

(* Whatever bytes arrive, request decoding must produce a request or a
   typed bad_request — never an escaped exception. *)
let test_adversarial_request_decode () =
  let decode line =
    match Server.Wire.request_of_line line with
    | Ok _ -> `Ok
    | Error e ->
        Alcotest.(check string)
          ("bad_request for " ^ String.escaped line)
          "bad_request" e.Server.Wire.we_code;
        `Bad
    | exception exn ->
        Alcotest.fail
          (Printf.sprintf "decoder raised %s on %s" (Printexc.to_string exn)
             (String.escaped line))
  in
  let must_reject line =
    match decode line with
    | `Bad -> ()
    | `Ok -> Alcotest.fail ("should reject: " ^ String.escaped line)
  in
  (* truncated JSON *)
  must_reject {|{"id": 1, "sql": "SELECT 1;"|};
  must_reject {|{"sql": "SELECT|};
  (* wrong-typed fields *)
  must_reject {|{"sql": 42}|};
  must_reject {|{"sql": ["SELECT 1;"]}|};
  must_reject {|{"sql": "SELECT 1;", "opts": 7}|};
  must_reject {|{"sql": "SELECT 1;", "opts": {"rewrite": "yes"}}|};
  must_reject {|{"sql": "SELECT 1;", "opts": {"rewrite": 1}}|};
  must_reject {|{"sql": "SELECT 1;", "opts": {"deadline_ms": -3}}|};
  must_reject {|{"sql": "SELECT 1;", "opts": {"deadline_ms": 0}}|};
  must_reject {|{"sql": "SELECT 1;", "opts": {"deadline_ms": "fast"}}|};
  (* scalars and arrays where an object belongs *)
  must_reject "42";
  must_reject {|["sql", "SELECT 1;"]|};
  must_reject "null";
  (* raw NUL byte breaks JSON framing: typed rejection, no crash *)
  must_reject "{\"sql\": \"SELECT\x00 1;\"}";
  (* duplicate keys and escaped NUL must not crash the decoder; whether
     they decode or reject is the JSON layer's choice *)
  ignore (decode {|{"sql": "SELECT 1;", "sql": 42}|});
  ignore (decode {|{"sql": "SELECT   1;"}|});
  (* unknown opts stay ignored (forward compatibility) *)
  match
    Server.Wire.request_of_line
      {|{"sql": "SELECT 1;", "opts": {"future_flag": [1, 2]}}|}
  with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Server.Wire.error_to_string e)

let raw_tcp_io addr =
  match addr with
  | Server.Listener.Tcp (h, p) ->
      let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_of_string h, p));
      Server.Lineio.make s
  | _ -> Alcotest.fail "tcp expected"

let expect_error_line io code =
  match Server.Lineio.read_line io with
  | Some line -> (
      match Server.Wire.response_of_line line with
      | Ok (Server.Wire.Failed (_, e)) ->
          Alcotest.(check string) "error code" code e.Server.Wire.we_code
      | _ -> Alcotest.fail ("expected typed " ^ code))
  | None -> Alcotest.fail "no response"

let test_adversarial_requests_live () =
  with_server (fun addr ->
      let io = raw_tcp_io addr in
      Fun.protect ~finally:(fun () -> Server.Lineio.close io) (fun () ->
          Server.Lineio.write_line io {|{"sql": "SELECT 1;", "opts": {"rewrite": "yes"}}|};
          expect_error_line io "bad_request";
          Server.Lineio.write_line io "{\"sql\": \"SELECT\x00 1;\"}";
          expect_error_line io "bad_request";
          (* the connection survives every rejection *)
          Server.Lineio.write_line io
            {|{"id": 9, "sql": "SELECT COUNT(*) AS n FROM sales;"}|};
          match Server.Lineio.read_line io with
          | Some line -> (
              match Server.Wire.response_of_line line with
              | Ok (Server.Wire.Reply r) ->
                  Alcotest.(check int) "id echoed" 9
                    (match r.Server.Wire.rp_id with J.Int n -> n | _ -> -1)
              | _ -> Alcotest.fail "valid request after garbage must succeed")
          | None -> Alcotest.fail "no response"))

(* A 9 MiB frame: one typed bad_request, stream resynchronized, the next
   request on the same connection served normally. *)
let test_oversize_frame_resync () =
  with_server (fun addr ->
      let io = raw_tcp_io addr in
      Fun.protect ~finally:(fun () -> Server.Lineio.close io) (fun () ->
          Server.Lineio.write_line io (String.make (9 * 1024 * 1024) 'x');
          expect_error_line io "bad_request";
          Server.Lineio.write_line io
            {|{"id": 1, "sql": "SELECT COUNT(*) AS n FROM sales;"}|};
          match Server.Lineio.read_line io with
          | Some line -> (
              match Server.Wire.response_of_line line with
              | Ok (Server.Wire.Reply _) -> ()
              | _ -> Alcotest.fail "request after oversize frame must succeed")
          | None -> Alcotest.fail "no response after resync"))

(* --- deadlines and the overload ladder ---------------------------------- *)

let sum_by_region_sql =
  "SELECT region, SUM(amount) AS total FROM sales GROUP BY region ORDER BY \
   region;"

let check_east_west (r : Server.Wire.reply) =
  match r.Server.Wire.rp_results with
  | [ t ] -> (
      match expect_table t with
      | _, [ [| V.Str "east"; V.Int 30 |]; [| V.Str "west"; V.Int 5 |] ] -> ()
      | _ -> Alcotest.fail "degraded answer must still be correct")
  | _ -> Alcotest.fail "expected one outcome"

let test_request_deadline_degrades () =
  (* an (absurd) 0.001 ms deadline trips at the first planning check: the
     reply degrades to the base plan, annotated, still correct *)
  with_server ~request_deadline_ms:0.001 (fun addr ->
      let c = Server.Client.connect_addr addr in
      Fun.protect ~finally:(fun () -> Server.Client.close c) (fun () ->
          match Server.Client.request c sum_by_region_sql with
          | Ok r ->
              check_east_west r;
              Alcotest.(check bool) "deadline annotated" true
                (List.mem "deadline" r.Server.Wire.rp_degraded)
          | Error e -> Alcotest.fail (Server.Wire.error_to_string e)))

let test_opts_deadline_degrades () =
  (* same, but the deadline travels in the request itself *)
  with_server (fun addr ->
      let c = Server.Client.connect_addr addr in
      Fun.protect ~finally:(fun () -> Server.Client.close c) (fun () ->
          (match Server.Client.request c ~deadline_ms:0.001 sum_by_region_sql with
          | Ok r ->
              check_east_west r;
              Alcotest.(check bool) "deadline annotated" true
                (List.mem "deadline" r.Server.Wire.rp_degraded)
          | Error e -> Alcotest.fail (Server.Wire.error_to_string e));
          (* and without it, the same connection serves full quality *)
          match Server.Client.request c sum_by_region_sql with
          | Ok r ->
              Alcotest.(check (list string)) "no annotation" []
                r.Server.Wire.rp_degraded
          | Error e -> Alcotest.fail (Server.Wire.error_to_string e)))

let test_degrade_watermark_rung () =
  (* watermark 0 = permanently pressured: base plans, annotated replies *)
  with_server ~degrade_watermark:0 (fun addr ->
      let c = Server.Client.connect_addr addr in
      Fun.protect ~finally:(fun () -> Server.Client.close c) (fun () ->
          match Server.Client.request c sum_by_region_sql with
          | Ok r ->
              check_east_west r;
              Alcotest.(check bool) "overload annotated" true
                (List.mem "overload" r.Server.Wire.rp_degraded)
          | Error e -> Alcotest.fail (Server.Wire.error_to_string e)))

let test_shed_carries_retry_after () =
  with_server ~domains:1 ~queue_depth:1 ~retry_after_ms:123 (fun addr ->
      let a = Server.Client.connect_addr addr in
      (match Server.Client.request a "SELECT COUNT(*) AS n FROM sales;" with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Server.Wire.error_to_string e));
      let b = Server.Client.connect_addr addr in
      let c = Server.Client.connect_addr addr in
      (match Server.Client.request c "SELECT COUNT(*) AS n FROM sales;" with
      | Error e ->
          Alcotest.(check string) "code" "overloaded" e.Server.Wire.we_code;
          Alcotest.(check (option int)) "hint" (Some 123)
            e.Server.Wire.we_retry_after_ms
      | Ok _ -> Alcotest.fail "expected overloaded"
      | exception _ -> () (* rejection may close before the request is read *));
      Server.Client.close c;
      Server.Client.close b;
      Server.Client.close a)

(* --- retrying client under wire faults ---------------------------------- *)

let test_sql_idempotent () =
  Alcotest.(check bool) "select" true
    (Server.Client.sql_idempotent "SELECT COUNT(*) AS n FROM sales;");
  Alcotest.(check bool) "explain" true
    (Server.Client.sql_idempotent
       "EXPLAIN REWRITE SELECT COUNT(*) AS n FROM sales;");
  Alcotest.(check bool) "insert" false
    (Server.Client.sql_idempotent "INSERT INTO sales VALUES ('x', 1);");
  Alcotest.(check bool) "mixed script" false
    (Server.Client.sql_idempotent
       "SELECT COUNT(*) AS n FROM sales; INSERT INTO sales VALUES ('x', 1);");
  Alcotest.(check bool) "garbage is conservative" false
    (Server.Client.sql_idempotent "DROP TH3 B4SS;")

let test_client_retries_wire_faults () =
  with_server (fun addr ->
      Guard.Fault.disarm_all ();
      Fun.protect ~finally:Guard.Fault.disarm_all (fun () ->
          let c = Server.Client.connect_addr ~timeout_ms:2000. addr in
          Fun.protect ~finally:(fun () -> Server.Client.close c) (fun () ->
              List.iter
                (fun point ->
                  Guard.Fault.arm point ~after:1;
                  match
                    Server.Client.request_robust c ~attempts:4
                      sum_by_region_sql
                  with
                  | Ok r -> check_east_west r
                  | Error f ->
                      Alcotest.fail
                        (Printf.sprintf "retry across %s failed: %s"
                           (Guard.Fault.point_name point)
                           (Server.Client.failure_to_string f)))
                [
                  Guard.Fault.Wire_corrupt;
                  Guard.Fault.Wire_disconnect;
                  Guard.Fault.Wire_partial_write;
                ])))

let test_ambiguous_dml_not_retried () =
  with_server (fun addr ->
      Guard.Fault.disarm_all ();
      Fun.protect ~finally:Guard.Fault.disarm_all (fun () ->
          let c = Server.Client.connect_addr ~timeout_ms:2000. addr in
          Fun.protect ~finally:(fun () -> Server.Client.close c) (fun () ->
              (* the reply to the INSERT is swallowed after execution: the
                 ack is ambiguous, and a blind retry would double-insert *)
              Guard.Fault.arm Guard.Fault.Wire_disconnect ~after:1;
              (match
                 Server.Client.request_robust c ~attempts:4
                   "INSERT INTO sales VALUES ('ambig', 1);"
               with
              | Error (Server.Client.Conn_error _) -> ()
              | Error (Server.Client.Server_error e) ->
                  Alcotest.fail
                    ("expected ambiguous conn failure, got "
                    ^ Server.Wire.error_to_string e)
              | Ok _ -> Alcotest.fail "swallowed ack must surface as failure");
              (* the write executed exactly once — which is why the client
                 must not have retried it *)
              match
                Server.Client.request_robust c ~attempts:4
                  "SELECT COUNT(*) AS n FROM sales WHERE region = 'ambig';"
              with
              | Ok r -> (
                  match r.Server.Wire.rp_results with
                  | [ t ] -> (
                      match expect_table t with
                      | _, [ [| V.Int 1 |] ] -> ()
                      | _, rows ->
                          Alcotest.fail
                            (Printf.sprintf "expected exactly 1 row, got %d"
                               (List.length rows)))
                  | _ -> Alcotest.fail "expected one outcome")
              | Error f ->
                  Alcotest.fail (Server.Client.failure_to_string f))))

let test_client_timeout_and_stall_retry () =
  with_server (fun addr ->
      Guard.Fault.disarm_all ();
      let saved_stall = !Guard.Fault.wire_stall_ms in
      Fun.protect
        ~finally:(fun () ->
          Guard.Fault.disarm_all ();
          Guard.Fault.set_wire_stall_ms saved_stall)
        (fun () ->
          Guard.Fault.set_wire_stall_ms 500.;
          let c = Server.Client.connect_addr ~timeout_ms:100. addr in
          Fun.protect ~finally:(fun () -> Server.Client.close c) (fun () ->
              (* the serving loop stalls past the client's timeout; the
                 read-only request retries on a fresh connection *)
              Guard.Fault.arm Guard.Fault.Wire_stall_read ~after:1;
              match
                Server.Client.request_robust c ~attempts:4 sum_by_region_sql
              with
              | Ok r -> check_east_west r
              | Error f ->
                  Alcotest.fail (Server.Client.failure_to_string f))))

(* --- idle/stall reaping and metrics balance ------------------------------ *)

let test_idle_reap_and_mid_frame_stall () =
  with_server ~idle_timeout_ms:80. ~io_timeout_ms:120. (fun addr ->
      (* idle peer: reaped quietly after ~80ms *)
      let idle = raw_tcp_io addr in
      (match Server.Lineio.read_line idle with
      | None -> () (* server closed on us: the reap *)
      | Some l -> Alcotest.fail ("unexpected reply to idle conn: " ^ l)
      | exception _ -> ());
      Server.Lineio.close idle;
      (* mid-frame staller: typed error, then hangup *)
      let stall = raw_tcp_io addr in
      Server.Lineio.write_raw stall {|{"sql": "SELECT|};
      (match Server.Lineio.read_line stall with
      | Some line -> (
          match Server.Wire.response_of_line line with
          | Ok (Server.Wire.Failed (_, e)) ->
              Alcotest.(check string) "stall code" "bad_request"
                e.Server.Wire.we_code
          | _ -> Alcotest.fail "expected typed stall error")
      | None -> Alcotest.fail "stalled conn reaped without the typed error"
      | exception _ -> ());
      Server.Lineio.close stall;
      (* a well-behaved client on the same server is untouched *)
      let c = Server.Client.connect_addr addr in
      Fun.protect ~finally:(fun () -> Server.Client.close c) (fun () ->
          match Server.Client.request c "SELECT COUNT(*) AS n FROM sales;" with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (Server.Wire.error_to_string e)))

(* Every error path must put its gauges back: after a server that saw
   normal traffic, garbage, an oversize frame, a handler crash and forced
   disconnects has fully stopped, the registry's server gauges read 0. *)
let test_metrics_balance_after_churn () =
  Guard.Fault.disarm_all ();
  with_server ~domains:2 ~queue_depth:4 (fun addr ->
      (* normal round trip *)
      let c = Server.Client.connect_addr addr in
      ignore (Server.Client.request c "SELECT COUNT(*) AS n FROM sales;");
      Server.Client.close c;
      (* oversize frame + garbage on one connection *)
      let io = raw_tcp_io addr in
      Server.Lineio.write_line io (String.make (9 * 1024 * 1024) 'y');
      expect_error_line io "bad_request";
      Server.Lineio.write_line io "not json";
      expect_error_line io "bad_request";
      Server.Lineio.close io;
      (* a handler crash (accept fault) *)
      Guard.Fault.arm Guard.Fault.Accept ~after:1;
      let f = Server.Client.connect_addr addr in
      (match Server.Client.request f "SELECT 1;" with
      | Ok _ | Error _ -> ()
      | exception _ -> ());
      Server.Client.close f;
      Guard.Fault.disarm_all ();
      (* a client that vanishes without a word *)
      let g = raw_tcp_io addr in
      Server.Lineio.write_raw g {|{"sql"|};
      Server.Lineio.close g;
      Unix.sleepf 0.05);
  (* with_server has stopped the listener: workers joined, conns closed *)
  Alcotest.(check (float 0.)) "server.active back to 0" 0.
    (Obs.Metrics.gauge_value (Obs.Metrics.gauge "server.active"));
  Alcotest.(check (float 0.)) "server.queue_depth back to 0" 0.
    (Obs.Metrics.gauge_value (Obs.Metrics.gauge "server.queue_depth"))

(* --- Lineio edge cases -------------------------------------------------- *)

(* A Lineio reader over the bytes of a temp file — read_line only needs a
   readable fd, so a file stands in for a socket. *)
let with_lineio_over bytes f =
  let path = Filename.temp_file "astql-lineio" ".txt" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes);
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  let io = Server.Lineio.make fd in
  Fun.protect
    ~finally:(fun () ->
      Server.Lineio.close io;
      Sys.remove path)
    (fun () -> f io)

let test_lineio_torn_line_at_eof () =
  with_lineio_over "complete\ntorn tail no newline" (fun io ->
      Alcotest.(check (option string))
        "whole line" (Some "complete")
        (Server.Lineio.read_line io);
      (* a peer that dies mid-line: the partial line is surfaced once... *)
      Alcotest.(check (option string))
        "torn line at EOF" (Some "torn tail no newline")
        (Server.Lineio.read_line io);
      (* ...and EOF is stable afterwards *)
      Alcotest.(check (option string)) "eof" None (Server.Lineio.read_line io);
      Alcotest.(check (option string)) "eof again" None
        (Server.Lineio.read_line io))

let test_lineio_line_cap () =
  let cap = Server.Lineio.max_line_bytes in
  (* exactly at the cap passes — the limit is on exceeding it *)
  with_lineio_over (String.make cap 'a' ^ "\nnext\n") (fun io ->
      (match Server.Lineio.read_line io with
      | Some l -> Alcotest.(check int) "exactly-at-cap length" cap (String.length l)
      | None -> Alcotest.fail "line at cap must be readable");
      Alcotest.(check (option string))
        "stream continues" (Some "next")
        (Server.Lineio.read_line io));
  (* one byte over raises instead of buffering without bound *)
  with_lineio_over (String.make (cap + 1) 'a' ^ "\n") (fun io ->
      match Server.Lineio.read_line io with
      | exception Server.Lineio.Line_too_long -> ()
      | _ -> Alcotest.fail "over-cap line must raise Line_too_long")

let test_lineio_crlf () =
  with_lineio_over "a\r\nb\nc\r\r\n\r\ntorn\r" (fun io ->
      let next () = Server.Lineio.read_line io in
      Alcotest.(check (option string)) "crlf stripped" (Some "a") (next ());
      Alcotest.(check (option string)) "bare lf untouched" (Some "b") (next ());
      (* only the final CR of a CRLF is protocol framing *)
      Alcotest.(check (option string)) "inner cr kept" (Some "c\r") (next ());
      Alcotest.(check (option string)) "empty crlf line" (Some "") (next ());
      (* CR stripping applies to the torn-at-EOF path too *)
      Alcotest.(check (option string)) "torn with cr" (Some "torn") (next ());
      Alcotest.(check (option string)) "eof" None (next ()))

let suite =
  [
    Alcotest.test_case "JSON parser" `Quick test_json_parse;
    Alcotest.test_case "JSON round trip" `Quick test_json_roundtrip;
    Alcotest.test_case "wire value round trip" `Quick test_value_roundtrip;
    Alcotest.test_case "request/response round trip" `Quick test_round_trip;
    Alcotest.test_case "published DML visible to new connections" `Quick
      test_dml_visible_across_connections;
    Alcotest.test_case "typed errors + statement rollback" `Quick
      test_typed_errors;
    Alcotest.test_case "bad request lines" `Quick test_bad_request_line;
    Alcotest.test_case "overload sheds with typed error" `Quick
      test_overload_typed_rejection;
    Alcotest.test_case "accept fault contained to one connection" `Quick
      test_accept_fault_is_contained;
    Alcotest.test_case "unix socket + opts.rewrite" `Quick
      test_unix_socket_and_rewrite_opt;
    Alcotest.test_case "adversarial request decoding" `Quick
      test_adversarial_request_decode;
    Alcotest.test_case "adversarial requests over a live socket" `Quick
      test_adversarial_requests_live;
    Alcotest.test_case "oversize frame resynchronizes" `Quick
      test_oversize_frame_resync;
    Alcotest.test_case "server-default deadline degrades" `Quick
      test_request_deadline_degrades;
    Alcotest.test_case "opts.deadline_ms degrades per request" `Quick
      test_opts_deadline_degrades;
    Alcotest.test_case "degrade watermark serves base plans" `Quick
      test_degrade_watermark_rung;
    Alcotest.test_case "shed reply carries retry_after_ms" `Quick
      test_shed_carries_retry_after;
    Alcotest.test_case "sql_idempotent classification" `Quick
      test_sql_idempotent;
    Alcotest.test_case "client retries across wire faults" `Quick
      test_client_retries_wire_faults;
    Alcotest.test_case "ambiguous DML ack is not retried" `Quick
      test_ambiguous_dml_not_retried;
    Alcotest.test_case "client timeout + stalled server retry" `Quick
      test_client_timeout_and_stall_retry;
    Alcotest.test_case "idle reap + mid-frame stall" `Quick
      test_idle_reap_and_mid_frame_stall;
    Alcotest.test_case "metrics balance after churn" `Quick
      test_metrics_balance_after_churn;
    Alcotest.test_case "lineio torn line at EOF" `Quick
      test_lineio_torn_line_at_eof;
    Alcotest.test_case "lineio 8 MiB line cap" `Quick test_lineio_line_cap;
    Alcotest.test_case "lineio CRLF tolerance" `Quick test_lineio_crlf;
  ]
