type t = {
  addr : Listener.addr;
  mutable io : Lineio.t option; (* None = currently disconnected *)
  mutable seq : int;
  mutable timeout_ms : float; (* response timeout; 0. = block forever *)
  conn_retries : int; (* connect-establishment retries per attempt *)
  jitter : Random.State.t;
}

type failure =
  | Server_error of Wire.error
  | Conn_error of string

let failure_to_string = function
  | Server_error e -> Wire.error_to_string e
  | Conn_error msg -> "connection error: " ^ msg

(* --- connecting --------------------------------------------------------- *)

let connect_sockaddr sa =
  let domain = Unix.domain_of_sockaddr sa in
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd sa with e -> Unix.close fd; raise e);
  Lineio.make fd

let dial = function
  | Listener.Unix_path p -> connect_sockaddr (Unix.ADDR_UNIX p)
  | Listener.Tcp (host, port) ->
      let inet =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          try (Unix.gethostbyname host).Unix.h_addr_list.(0)
          with Not_found -> failwith ("unknown host: " ^ host))
      in
      connect_sockaddr (Unix.ADDR_INET (inet, port))

(* Bounded exponential backoff for racing a server that is still booting
   (or recovering a large WAL): attempt k sleeps 50ms * 2^k, capped at 1s,
   so --retry 5 spans roughly 1.5s and --retry 10 roughly 8s. Only
   connection-establishment failures retry; anything after connect(2)
   succeeds is a real error. *)
let retry_delay k = Float.min 1.0 (0.05 *. Float.pow 2.0 (float_of_int k))

let dial_retry ~retries addr =
  let rec go k =
    match dial addr with
    | io -> io
    | exception ((Unix.Unix_error
                    ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNRESET), _, _)
                 | Failure _) as e) ->
        if k >= retries then raise e
        else begin
          Unix.sleepf (retry_delay k);
          go (k + 1)
        end
  in
  go 0

let apply_timeout t io =
  (* one knob bounds the whole response wait: first byte (idle path in
     Lineio) and every later chunk (io path), plus our own writes *)
  Lineio.set_timeouts ~idle_ms:t.timeout_ms ~io_ms:t.timeout_ms io

let make ?(retries = 0) ?(timeout_ms = 0.) addr =
  if timeout_ms < 0. then invalid_arg "Client.connect: negative timeout";
  {
    addr;
    io = None;
    seq = 0;
    timeout_ms;
    conn_retries = retries;
    jitter = Random.State.make_self_init ();
  }

let ensure_io t =
  match t.io with
  | Some io -> io
  | None ->
      let io = dial_retry ~retries:t.conn_retries t.addr in
      apply_timeout t io;
      t.io <- Some io;
      io

let drop_io t =
  match t.io with
  | None -> ()
  | Some io ->
      t.io <- None;
      Lineio.close io

let connect_addr ?retries ?timeout_ms addr =
  let t = make ?retries ?timeout_ms addr in
  ignore (ensure_io t);
  t

let connect ?retries ?timeout_ms s =
  (* a dead server must not kill the client process on write *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Listener.parse_addr s with
  | Ok addr -> connect_addr ?retries ?timeout_ms addr
  | Error msg -> failwith msg

let set_timeout_ms t ms =
  if ms < 0. then invalid_arg "Client.set_timeout_ms: negative timeout";
  t.timeout_ms <- ms;
  match t.io with Some io -> apply_timeout t io | None -> ()

let close t = drop_io t

(* --- one-shot request --------------------------------------------------- *)

let next_id t =
  t.seq <- t.seq + 1;
  Obs.Json.Int t.seq

let send_and_read t ~id ?rewrite ?deadline_ms sql =
  let io = ensure_io t in
  let rq =
    {
      Wire.rq_id = id;
      rq_sql = sql;
      rq_rewrite = rewrite;
      rq_deadline_ms = deadline_ms;
    }
  in
  Lineio.write_line io (Obs.Json.to_string (Wire.request_to_json rq));
  match Lineio.read_line io with
  | None -> raise End_of_file
  | Some line -> (
      match Wire.response_of_line line with
      | Ok (Wire.Reply r) -> Ok r
      | Ok (Wire.Failed (_, e)) -> Error e
      | Error msg -> failwith ("malformed response: " ^ msg))

let request t ?id ?rewrite ?deadline_ms sql =
  let id = match id with Some id -> id | None -> next_id t in
  send_and_read t ~id ?rewrite ?deadline_ms sql

(* --- retrying request --------------------------------------------------- *)

(* A script is safe to blindly resend exactly when none of its statements
   mutates the database: a SELECT that may or may not have executed gives
   the same answer either way, while an INSERT that may have committed
   must not run twice. Anything that fails to parse is treated as a write
   (the conservative direction). *)
let sql_idempotent sql =
  match Sqlsyn.Parser.parse_script sql with
  | stmts -> List.for_all (fun s -> not (Mvstore.Session.stmt_writes s)) stmts
  | exception _ -> false

(* Which failures may be retried, and under what ambiguity:

   - the request line never made it out intact (connect or write failure):
     the server cannot have executed a partial, newline-less line, so the
     retry is safe even for DML;
   - a decoded typed error: definitive — the statement-rollback discipline
     means a failed statement published nothing. [overloaded] and
     [fault_injected] describe server conditions worth retrying; the rest
     ([bad_request], [session_error], [fatal], [error]) would fail
     identically again;
   - anything after the request was written but before a decoded reply
     (EOF, response timeout, corrupted reply line): the request's fate is
     unknown — the acknowledgement is ambiguous — so only an idempotent
     script retries. *)
type verdict = Retry | Retry_if_idempotent | Final

let error_verdict (e : Wire.error) =
  match e.Wire.we_code with
  | "overloaded" | "fault_injected" -> Retry
  | _ -> Final

let backoff t k (last : failure option) =
  let base = retry_delay k in
  (* an overloaded server said how long it wants: believe it *)
  let floor_s =
    match last with
    | Some (Server_error { Wire.we_retry_after_ms = Some ms; _ }) ->
        float_of_int ms /. 1000.
    | _ -> 0.
  in
  (* jitter to 50-100% of the computed delay: a fleet of shed clients must
     not reconverge on the server in one synchronized wave *)
  let d = Float.max base floor_s in
  Unix.sleepf (d *. (0.5 +. Random.State.float t.jitter 0.5))

let request_robust t ?id ?rewrite ?deadline_ms ?(attempts = 5) sql =
  if attempts < 1 then invalid_arg "Client.request_robust: attempts < 1";
  let idem = sql_idempotent sql in
  let id = match id with Some id -> id | None -> next_id t in
  let line =
    Obs.Json.to_string
      (Wire.request_to_json
         {
           Wire.rq_id = id;
           rq_sql = sql;
           rq_rewrite = rewrite;
           rq_deadline_ms = deadline_ms;
         })
  in
  (* phase 1: connect + send. Any failure here happened before the server
     could have seen a complete request line — safe to retry blindly. *)
  let send () =
    match
      let io = ensure_io t in
      Lineio.write_line io line;
      io
    with
    | io -> Ok io
    | exception
        ( Lineio.Write_timeout
        | Unix.Unix_error _
        | Failure _ (* bad hostname from dial *) ) ->
        drop_io t;
        Error (Conn_error "send failed (server unreachable?)", Retry)
  in
  (* phase 2: await + decode. The request is out; its fate is unknown
     until a reply decodes, so failures here retry only when idempotent. *)
  let await io =
    match Lineio.read_line io with
    | None ->
        drop_io t;
        Error
          ( Conn_error "server closed the connection before replying",
            Retry_if_idempotent )
    | exception Lineio.Read_timeout _ ->
        drop_io t;
        Error
          ( Conn_error
              (Printf.sprintf "no response within %.0f ms" t.timeout_ms),
            Retry_if_idempotent )
    | exception Unix.Unix_error _ ->
        drop_io t;
        Error (Conn_error "connection lost awaiting reply", Retry_if_idempotent)
    | exception Lineio.Line_too_long ->
        drop_io t;
        Error (Conn_error "oversize response line", Retry_if_idempotent)
    | Some reply_line -> (
        match Wire.response_of_line reply_line with
        | Ok (Wire.Reply r) -> Ok r
        | Ok (Wire.Failed (_, e)) ->
            (* the shed rung answers then closes; reconnect to retry *)
            if e.Wire.we_code = "overloaded" then drop_io t;
            Error (Server_error e, error_verdict e)
        | Error msg ->
            (* a reply arrived but does not decode (corrupted in flight):
               the request ran, its outcome is unreadable — ambiguous *)
            drop_io t;
            Error
              (Conn_error ("malformed response: " ^ msg), Retry_if_idempotent)
        )
  in
  let attempt () =
    match send () with Error _ as e -> e | Ok io -> await io
  in
  let rec go k last =
    if k >= attempts then
      Error (Option.value last ~default:(Conn_error "no attempts made"))
    else begin
      if k > 0 then backoff t (k - 1) last;
      match attempt () with
      | Ok r -> Ok r
      | Error (f, Retry) -> go (k + 1) (Some f)
      | Error (f, Retry_if_idempotent) when idem -> go (k + 1) (Some f)
      | Error (f, (Retry_if_idempotent | Final)) -> Error f
    end
  in
  go 0 None
