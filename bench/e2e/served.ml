(* The served half of the benchmark: spawn the real astql-server, drive it
   over a Unix socket from this one process (a reader connection, and for
   mixed_ingest a writer connection, one thread each), time what the client
   sees, and check the answers. *)

module Client = Server.Client
module Wire = Server.Wire
module R = Data.Relation
module H = Harness

(* ---------------- child processes ---------------- *)

(* Every child still running when the benchmark exits, however it exits,
   is killed and reaped. *)
let live = ref []

let reap pid =
  live := List.filter (( <> ) pid) !live;
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid)
        !live)

(* A CI leg's ASTQL_EXEC, ASTQL_PROVE or ASTQL_FSYNC must not change the
   program being measured. *)
let clean_env () =
  Array.of_list
    (List.filter
       (fun kv -> not (String.starts_with ~prefix:"ASTQL_" kv))
       (Array.to_list (Unix.environment ())))

type server = { pid : int; sock : string; spawned : int64 }

let spawn ~exe ~sock ~log args =
  (try Sys.remove sock with Sys_error _ -> ());
  let fd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let argv = Array.of_list ((exe :: "--addr" :: sock :: args)) in
  let spawned = H.now_ns () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.create_process_env exe argv (clean_env ()) Unix.stdin fd fd)
  in
  live := pid :: !live;
  { pid; sock; spawned }

exception Boot_failed of string

(* Seconds from spawn to the first successful reply to [sql]. The socket
   is polled every 5 ms: a backoff that doubles would quantize boot times
   to its own schedule. *)
let await_first_reply ?(timeout_s = 150.) srv sql =
  let rec go () =
    (match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ -> ()
    | _ ->
        live := List.filter (( <> ) srv.pid) !live;
        raise (Boot_failed "astql-server exited before its first reply"));
    if H.s_since srv.spawned > timeout_s then
      raise (Boot_failed "astql-server did not answer in time");
    match Client.connect srv.sock with
    | exception (Unix.Unix_error _ | Failure _) ->
        Unix.sleepf 0.005;
        go ()
    | c -> (
        match Client.request c sql with
        | Ok reply ->
            let s = H.s_since srv.spawned in
            Client.close c;
            (s, reply)
        | Error _ | (exception _) ->
            Client.close c;
            Unix.sleepf 0.005;
            go ())
  in
  go ()

(* Peak resident set (VmHWM) of a live process, in MB. *)
let vm_hwm_mb pid =
  let lines =
    In_channel.with_open_text
      (Printf.sprintf "/proc/%d/status" pid)
      In_channel.input_lines
  in
  match List.find_opt (String.starts_with ~prefix:"VmHWM:") lines with
  | Some l ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
  | None -> failwith "no VmHWM in /proc status"

(* SIGTERM, then wait for the drain and final checkpoint; SIGKILL if the
   server has not exited after a minute. *)
let stop srv =
  (try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let t0 = H.now_ns () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ ->
        if H.s_since t0 > 60. then (
          (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap srv.pid)
        else (
          Unix.sleepf 0.01;
          wait ())
    | _ -> live := List.filter (( <> ) srv.pid) !live
    | exception Unix.Unix_error _ -> live := List.filter (( <> ) srv.pid) !live
  in
  wait ()

(* ---------------- requests ---------------- *)

let table_of (reply : Wire.reply) =
  match reply.Wire.rp_results with
  | [ Wire.Table (cols, rows) ] -> Some (R.create cols rows)
  | _ -> None

(* A connection that reconnects after a transport failure. *)
type conn = { sock : string; mutable c : Client.t option }

let conn sock = { sock; c = None }

let send ?rewrite cn sql =
  match
    let c =
      match cn.c with
      | Some c -> c
      | None ->
          let c = Client.connect cn.sock in
          cn.c <- Some c;
          c
    in
    Client.request c ?rewrite sql
  with
  | Ok r -> Ok r
  | Error e -> Error (Wire.error_to_string e)
  | exception e ->
      Option.iter Client.close cn.c;
      cn.c <- None;
      Error (Printexc.to_string e)

let close cn = Option.iter Client.close cn.c

let errors_logged = Atomic.make 0

let log_failure what sql msg =
  if Atomic.fetch_and_add errors_logged 1 < 5 then
    Printf.eprintf "e2e: %s failed: %s\n  sql: %s\n%!" what msg sql

(* ---------------- load ---------------- *)

type stats = {
  lat : H.Samples.t;  (** ms; reads from send, writes from their due time *)
  lag : H.Samples.t;  (** ms the generator ran late *)
  mutable attempted : int;
  mutable failed : int;
  mutable last_recv : int64;
  mutable acked_rows : int;
  mutable captured : (string * R.t) list;
}

let stats () =
  {
    lat = H.Samples.create ();
    lag = H.Samples.create ();
    attempted = 0;
    failed = 0;
    last_recv = 0L;
    acked_rows = 0;
    captured = [];
  }

(* The gate's sample of timed replies: the first [first] (every distinct
   query of rewrite_hot) plus a seeded reservoir of [reservoir] over the
   rest. *)
let first = 10
let reservoir = 200

(* Closed loop: the next request goes out when the previous reply is in.
   Requests sent before [warm_until] are the unmeasured warm-up. A closed
   loop's lag is the time between a reply and the next send. *)
let closed_loop ~sock ~sql_of ~warm_until ~until ~capture_seed st () =
  let cn = conn sock in
  let rng = Random.State.make [| capture_seed |] in
  let slots = Array.make reservoir None in
  let firsts = ref [] in
  let rec go i k prev =
    let t_send = H.now_ns () in
    if t_send < until then begin
      let sql = sql_of i in
      let res = send cn sql in
      let t_recv = H.now_ns () in
      let timed = t_send >= warm_until in
      if timed then begin
        st.attempted <- st.attempted + 1;
        H.Samples.add st.lag (H.ns_to_ms (Int64.sub t_send prev));
        match res with
        | Ok reply ->
            H.Samples.add st.lat (H.ns_to_ms (Int64.sub t_recv t_send));
            st.last_recv <- t_recv;
            Option.iter
              (fun rel ->
                if k < first then firsts := (sql, rel) :: !firsts
                else
                  let j = k - first in
                  if j < reservoir then slots.(j) <- Some (sql, rel)
                  else
                    let r = Random.State.int rng (j + 1) in
                    if r < reservoir then slots.(r) <- Some (sql, rel))
              (table_of reply)
        | Error m ->
            st.failed <- st.failed + 1;
            log_failure "read" sql m
      end;
      go (i + 1) (if timed then k + 1 else k) t_recv
    end
  in
  go 0 0 (H.now_ns ());
  close cn;
  st.captured <- List.rev !firsts @ List.filter_map Fun.id (Array.to_list slots)

(* Open loop: write [k] is due at [start + k / rate] whatever happened to
   the ones before it, and its latency counts from that due time. *)
let open_loop ~sock ~sql_of ~rate ~start ~until st () =
  let cn = conn sock in
  let period = 1e9 /. rate in
  let rec go k =
    let due = Int64.add start (Int64.of_float (float_of_int k *. period)) in
    if due < until then begin
      let wait = H.ns_to_ms (Int64.sub due (H.now_ns ())) in
      if wait > 0. then Unix.sleepf (wait /. 1000.);
      let t_send = H.now_ns () in
      let sql = sql_of k in
      let res = send cn sql in
      let t_recv = H.now_ns () in
      st.attempted <- st.attempted + 1;
      H.Samples.add st.lag (H.ns_to_ms (Int64.sub t_send due));
      (match res with
      | Ok _ ->
          H.Samples.add st.lat (H.ns_to_ms (Int64.sub t_recv due));
          st.last_recv <- t_recv;
          st.acked_rows <- st.acked_rows + Gen.rows_per_insert
      | Error m ->
          st.failed <- st.failed + 1;
          log_failure "write" sql m);
      go (k + 1)
    end
  in
  go 0;
  close cn

(* ---------------- one served run ---------------- *)

type outcome = {
  o_setup_s : float array;
  o_reads : stats;
  o_writes : stats option;
  o_read_elapsed_s : float;
  o_rss_mb : float;
  o_recover_s : float array;
  o_wrong : int;
  o_attempted : int;
  o_failed : int;
}

let count_sql = "SELECT COUNT(*) FROM Trans"

let count_of reply =
  match table_of reply with
  | Some rel -> (
      match R.rows rel with [ [| Data.Value.Int n |] ] -> Some n | _ -> None)
  | None -> None

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* The correctness gate's tally. A gate request that fails counts as a
   wrong answer too: the answer could not be confirmed. *)
type gate = { mutable wrong : int; mutable sent : int; mutable lost : int }

let gate_send g ?rewrite cn sql =
  g.sent <- g.sent + 1;
  match send ?rewrite cn sql with
  | Ok reply -> Some reply
  | Error m ->
      log_failure "gate" sql m;
      g.lost <- g.lost + 1;
      g.wrong <- g.wrong + 1;
      None

(* Bag-compare [got] against the same SQL re-run with rewriting off. *)
let check_against_base g cn (sql, got) =
  match Option.map table_of (gate_send g ~rewrite:false cn sql) with
  | Some (Some base) when R.bag_equal_approx ~rel_eps:1e-9 got base -> ()
  | Some (Some base) ->
      Printf.eprintf "e2e: WRONG ANSWER\n  sql: %s\n  served:\n%s\n  base:\n%s\n%!"
        sql (R.to_string got) (R.to_string base);
      g.wrong <- g.wrong + 1
  | Some None -> g.wrong <- g.wrong + 1
  | None -> ()

let check_count g what expected reply =
  match Option.map count_of reply with
  | Some (Some n) when n = expected -> ()
  | Some got ->
      Printf.eprintf "e2e: WRONG COUNT %s: expected %d, got %s\n%!" what
        expected
        (Option.fold ~none:"no count" ~some:string_of_int got);
      g.wrong <- g.wrong + 1
  | None -> ()

let run ~exe ~dir (spec : Gen.spec) ~seed ~seconds ~setups =
  rm_rf dir;
  Sys.mkdir dir 0o755;
  let sock = Filename.concat dir "s.sock" in
  let log = Filename.concat dir "server.log" in
  let sql_file = Filename.concat dir "summaries.sql" in
  Out_channel.with_open_text sql_file (fun oc ->
      output_string oc (Gen.summaries_sql spec));
  let durable = spec.Gen.write_rate > 0. in
  let dur_dir k = Filename.concat dir (Printf.sprintf "durable-%d" k) in
  let args k =
    [ "--demo"; "--scale"; string_of_int spec.Gen.scale; "--domains"; "2" ]
    @ (if durable then
         [ "--durability"; dur_dir k; "--fsync"; "always"; "--checkpoint-every"; "64" ]
       else [])
    @ [ sql_file ]
  in
  (* set-up: spawn to first reply, [setups] times; the last server serves *)
  let boot k =
    let srv = spawn ~exe ~sock ~log (args k) in
    let s, reply = await_first_reply srv count_sql in
    (srv, s, reply)
  in
  let setup_s = Array.make setups 0. in
  let rec boots k =
    let srv, s, reply = boot k in
    setup_s.(k) <- s;
    if k + 1 < setups then (
      stop srv;
      boots (k + 1))
    else (srv, reply)
  in
  let srv, first_reply = boots 0 in
  let seed_count =
    match count_of first_reply with
    | Some n -> n
    | None -> failwith "first reply carried no row count"
  in
  (* load: one thread per connection *)
  let warm_until = Int64.add (H.now_ns ()) 1_000_000_000L in
  let until = Int64.add warm_until (Int64.of_int (seconds * 1_000_000_000)) in
  let reads = stats () in
  let reader =
    Thread.create
      (closed_loop ~sock ~sql_of:(Gen.read spec ~seed) ~warm_until ~until
         ~capture_seed:seed reads)
      ()
  in
  let writes = if durable then Some (stats ()) else None in
  let writer =
    Option.map
      (fun st ->
        Thread.create
          (open_loop ~sock
             ~sql_of:(Gen.write ~seed ~scale:spec.Gen.scale)
             ~rate:spec.Gen.write_rate ~start:warm_until ~until st)
          ())
      writes
  in
  Thread.join reader;
  Option.iter Thread.join writer;
  let read_elapsed_s = H.ns_to_ms (Int64.sub reads.last_recv warm_until) /. 1000. in
  (* correctness gate *)
  let g = { wrong = 0; sent = 0; lost = 0 } in
  let cn = conn sock in
  let acked = match writes with Some w -> w.acked_rows | None -> 0 in
  if durable then begin
    (* quiesced: every query agrees with rewriting on and off, and every
       acknowledged row is there *)
    Array.iter
      (fun sql ->
        match Option.map table_of (gate_send g cn sql) with
        | Some (Some got) -> check_against_base g cn (sql, got)
        | Some None -> g.wrong <- g.wrong + 1
        | None -> ())
      Gen.ds_sqls;
    check_count g "before restart" (seed_count + acked) (gate_send g cn count_sql)
  end
  else List.iter (check_against_base g cn) reads.captured;
  close cn;
  let rss = vm_hwm_mb srv.pid in
  stop srv;
  (* recovery: restart on the same durability directory, [setups] times *)
  let recover_s =
    if not durable then [||]
    else
      Array.init setups (fun _ ->
          let srv = spawn ~exe ~sock ~log (args (setups - 1)) in
          let s, reply = await_first_reply srv count_sql in
          g.sent <- g.sent + 1;
          check_count g "after restart" (seed_count + acked) (Some reply);
          stop srv;
          s)
  in
  let all = reads :: Option.to_list writes in
  {
    o_setup_s = setup_s;
    o_reads = reads;
    o_writes = writes;
    o_read_elapsed_s = read_elapsed_s;
    o_rss_mb = rss;
    o_recover_s = recover_s;
    o_wrong = g.wrong;
    o_attempted = List.fold_left (fun a (st : stats) -> a + st.attempted) g.sent all;
    o_failed = List.fold_left (fun a (st : stats) -> a + st.failed) g.lost all;
  }
