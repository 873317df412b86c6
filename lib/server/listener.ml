module J = Obs.Json

let m_connections = Obs.Metrics.counter "server.connections"
let m_requests = Obs.Metrics.counter "server.requests"
let m_rejects = Obs.Metrics.counter "server.rejects"
let m_conn_crashes = Obs.Metrics.counter "server.conn_crashes"
let m_idle_reaped = Obs.Metrics.counter "server.idle_reaped"
let m_stalled_conns = Obs.Metrics.counter "server.stalled_conns"
let m_oversize_lines = Obs.Metrics.counter "server.oversize_lines"
let m_degraded_requests = Obs.Metrics.counter "server.degraded_requests"
let g_active = Obs.Metrics.gauge "server.active"
let h_request_ms = Obs.Metrics.histogram "server.request_ms"

type addr = Unix_path of string | Tcp of string * int

let parse_addr s =
  if s = "" then Error "empty address"
  else
    match String.rindex_opt s ':' with
    | Some i -> (
        let host = String.sub s 0 i in
        let port_s = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port_s with
        | Some p when p >= 0 && p < 65536 ->
            Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
        | Some _ -> Error ("port out of range: " ^ port_s)
        | None -> Ok (Unix_path s))
    | None -> Ok (Unix_path s)

let addr_to_string = function
  | Unix_path p -> p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

type config = {
  cf_addr : addr;
  cf_domains : int;
  cf_queue_depth : int;
  cf_backlog : int;
  cf_degrade_watermark : int;
  cf_retry_after_ms : int;
  cf_idle_timeout_ms : float;
  cf_io_timeout_ms : float;
  cf_request_deadline_ms : float;
}

let config ?(degrade_watermark = -1) ?(retry_after_ms = 50)
    ?(idle_timeout_ms = 0.) ?(io_timeout_ms = 0.) ?(request_deadline_ms = 0.)
    ~addr ~domains ~queue_depth ~backlog () =
  {
    cf_addr = addr;
    cf_domains = domains;
    cf_queue_depth = queue_depth;
    cf_backlog = backlog;
    cf_degrade_watermark = degrade_watermark;
    cf_retry_after_ms = retry_after_ms;
    cf_idle_timeout_ms = idle_timeout_ms;
    cf_io_timeout_ms = io_timeout_ms;
    cf_request_deadline_ms = request_deadline_ms;
  }

type t = {
  listen_fd : Unix.file_descr;
  bound : Unix.sockaddr;
  unix_path : string option;
  pool : Pool.t;
  depth : int;
  degrade_watermark : int; (* queued >= this → serve base plans; < 0 = off *)
  retry_after_ms : int;    (* backoff hint on the shed rung *)
  idle_ms : float;         (* reap a conn idle between requests (0. = never) *)
  io_ms : float;           (* mid-frame read / write stall bound (0. = none) *)
  request_deadline_ms : float; (* default opts.deadline_ms (0. = none) *)
  stop_r : Unix.file_descr; (* self-pipe: readable <=> stop requested *)
  stop_w : Unix.file_descr;
  mutable accept_dom : unit Domain.t option;
  stopped : bool Atomic.t;
  m : Mutex.t;
  cv : Condition.t;
  mutable finished : bool;
  (* live connection fds, so stop can force-disconnect: a worker blocked
     reading an idle client must not stall shutdown forever *)
  conns : (Unix.file_descr, unit) Hashtbl.t;
  conns_m : Mutex.t;
  (* requests currently executing (not idle connections): what a graceful
     shutdown drains before force-disconnecting *)
  inflight : int Atomic.t;
}

let register_conn t fd =
  Mutex.protect t.conns_m (fun () -> Hashtbl.replace t.conns fd ())

let unregister_conn t fd =
  Mutex.protect t.conns_m (fun () -> Hashtbl.remove t.conns fd)

(* [shutdown(2)], not [close(2)]: shutdown wakes a peer domain blocked in
   [read] with EOF; closing out from under it would not (and the worker
   owns the close). *)
let disconnect_all t =
  Mutex.protect t.conns_m (fun () ->
      Hashtbl.iter
        (fun fd () ->
          try Unix.shutdown fd Unix.SHUTDOWN_ALL
          with Unix.Unix_error _ -> ())
        t.conns;
      Hashtbl.reset t.conns)

(* --- per-connection serving --------------------------------------------- *)

(* The request's effective settings, derived from the session's own and
   never stored on it. Under queue pressure ([pressured]) the rewrite
   search is skipped outright — base plans cost no planning and no match
   work, which is exactly the capacity the overloaded server needs back —
   and an explicit [opts.rewrite=true] does not override the ladder. The
   deadline is the tighter of the session's own and the per-request one
   (explicit [opts.deadline_ms], else the server default): a request can
   only tighten the admission-control limits, never loosen them. *)
let request_config t session (rq : Wire.request) ~pressured =
  let c = Mvstore.Session.config session in
  let l = c.Mvstore.Session.limits in
  let requested =
    match rq.Wire.rq_deadline_ms with
    | Some d -> Some d
    | None ->
        if t.request_deadline_ms > 0. then Some t.request_deadline_ms
        else None
  in
  let limits =
    match (requested, l.Govern.Budget.bl_deadline_ms) with
    | None, _ -> l
    | Some r, None -> { l with Govern.Budget.bl_deadline_ms = Some r }
    | Some r, Some d ->
        { l with Govern.Budget.bl_deadline_ms = Some (Float.min r d) }
  in
  {
    c with
    Mvstore.Session.rewrite =
      Option.value rq.Wire.rq_rewrite ~default:c.Mvstore.Session.rewrite
      && not pressured;
    limits;
  }

let process t session line =
  match Wire.request_of_line line with
  | Error e -> Wire.response_error ~id:J.Null e
  | Ok rq -> (
      let t0 = Obs.Metrics.now_ms () in
      (* overload ladder, first rung: when the waiting queue is past the
         watermark, serve base plans (skip the rewrite search) instead of
         refusing — degraded service before no service *)
      let pressured =
        t.degrade_watermark >= 0
        && Pool.queued t.pool >= t.degrade_watermark
      in
      let config = request_config t session rq ~pressured in
      Mvstore.Session.reset_degraded session;
      match Mvstore.Session.exec_sql ~config session rq.Wire.rq_sql with
      | outcomes ->
          let degraded =
            (if pressured then [ "overload" ] else [])
            @ Mvstore.Session.degraded_reasons session
          in
          if degraded <> [] then Obs.Metrics.incr m_degraded_requests;
          Wire.response_ok ~degraded ~id:rq.Wire.rq_id
            ~ms:(Obs.Metrics.now_ms () -. t0)
            outcomes
      | exception exn ->
          Wire.response_error ~id:rq.Wire.rq_id
            (Wire.error_of_exn ~sql:rq.Wire.rq_sql exn))

(* Put the reply on the wire — or, when a wire fault point is armed, mangle
   exactly this reply the way a hostile network would: an EOF before any
   byte (ambiguous ack), a torn frame, or corrupted bytes inside an intact
   line. The chaos harness arms these to prove the client's retry
   discipline; each costs at most this connection. *)
let send_reply io resp =
  let line = J.to_string resp in
  if Guard.Fault.fire Guard.Fault.Wire_disconnect then
    try Unix.shutdown (Lineio.fd io) Unix.SHUTDOWN_ALL
    with Unix.Unix_error _ -> ()
  else if Guard.Fault.fire Guard.Fault.Wire_partial_write then begin
    (try Lineio.write_raw io (String.sub line 0 (String.length line / 2))
     with Unix.Unix_error _ -> ());
    try Unix.shutdown (Lineio.fd io) Unix.SHUTDOWN_ALL
    with Unix.Unix_error _ -> ()
  end
  else if Guard.Fault.fire Guard.Fault.Wire_corrupt then begin
    let b = Bytes.of_string line in
    Bytes.fill b 0 (min 16 (Bytes.length b)) '#';
    Lineio.write_line io (Bytes.to_string b)
  end
  else Lineio.write_line io line

let serve_conn t session io =
  let rec loop () =
    (* wire fault: the serving loop stalls before its next read, as a
       client with a response timeout would observe *)
    if Guard.Fault.fire Guard.Fault.Wire_stall_read then
      Unix.sleepf (!Guard.Fault.wire_stall_ms /. 1000.);
    match Lineio.read_line io with
    | None -> ()
    | Some line when String.trim line = "" -> loop ()
    | Some line ->
        Obs.Metrics.incr m_requests;
        (* in-flight from parse to flushed response: a draining shutdown
           waits for the answer to reach the wire, not just the executor *)
        Atomic.incr t.inflight;
        Fun.protect
          ~finally:(fun () -> Atomic.decr t.inflight)
          (fun () ->
            let resp =
              Obs.Metrics.time h_request_ms (fun () -> process t session line)
            in
            send_reply io resp);
        loop ()
    | exception Lineio.Line_too_long ->
        (* Lineio has already consumed through the terminating newline, so
           after the typed error the stream is clean: keep serving. A 9 MiB
           frame costs its sender one error reply, not the connection. *)
        Obs.Metrics.incr m_oversize_lines;
        let e =
          Wire.mk_error "bad_request"
            (Printf.sprintf "request line exceeds %d bytes"
               Lineio.max_line_bytes)
        in
        Lineio.write_line io (J.to_string (Wire.response_error ~id:J.Null e));
        loop ()
    | exception Lineio.Read_timeout { rt_partial = false } ->
        (* quiet peer between requests: reap silently, freeing the worker *)
        Obs.Metrics.incr m_idle_reaped
    | exception Lineio.Read_timeout { rt_partial = true } ->
        (* peer stalled mid-frame: misbehaving, tell it so and hang up *)
        Obs.Metrics.incr m_stalled_conns;
        let e =
          Wire.mk_error "bad_request"
            "request frame stalled mid-line (io timeout)"
        in
        (try
           Lineio.write_line io (J.to_string (Wire.response_error ~id:J.Null e))
         with Lineio.Write_timeout | Unix.Unix_error _ -> ())
  in
  loop ()

let handle t mk_session fd =
  Obs.Metrics.gauge_add g_active 1.;
  let io = Lineio.make fd in
  Lineio.set_timeouts ~idle_ms:t.idle_ms ~io_ms:t.io_ms io;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.gauge_add g_active (-1.);
      unregister_conn t fd;
      Lineio.close io)
    (fun () ->
      try
        (* fault-injection point: a crash here must cost exactly this
           connection, nothing else *)
        Guard.Fault.hit Guard.Fault.Accept;
        let session = mk_session () in
        serve_conn t session io
      with
      | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          () (* peer went away mid-stream: normal hangup *)
      | Lineio.Write_timeout ->
          (* peer stopped draining its socket: counted, connection dropped,
             worker lives on *)
          Obs.Metrics.incr m_stalled_conns
      | exn ->
          Obs.Metrics.incr m_conn_crashes;
          raise exn)

(* --- accept loop -------------------------------------------------------- *)

(* Overload ladder, final rung: queue full, shed the connection with a
   typed error carrying a backoff hint. The write is bounded — a peer that
   will not even read its rejection must not stall the accept loop. *)
let reject t fd =
  Obs.Metrics.incr m_rejects;
  let io = Lineio.make fd in
  Lineio.set_timeouts ~io_ms:(if t.io_ms > 0. then t.io_ms else 1000.) io;
  (try
     Lineio.write_line io
       (J.to_string
          (Wire.response_error ~id:J.Null
             (Wire.overloaded_error ~queue_depth:t.depth
                ~retry_after_ms:t.retry_after_ms)))
   with Lineio.Write_timeout | Unix.Unix_error _ -> ());
  Lineio.close io

let accept_loop t mk_session () =
  let rec loop () =
    if Atomic.get t.stopped then ()
    else begin
      match Unix.select [ t.listen_fd; t.stop_r ] [] [] (-1.) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | readable, _, _ ->
          if List.mem t.stop_r readable then ()
          else begin
            (match Unix.accept ~cloexec:true t.listen_fd with
            | exception Unix.Unix_error (_, _, _) -> ()
            | fd, _ ->
                Obs.Metrics.incr m_connections;
                register_conn t fd;
                if not (Pool.submit t.pool (fun () -> handle t mk_session fd))
                then begin
                  unregister_conn t fd;
                  reject t fd
                end);
            loop ()
          end
    end
  in
  loop ()

(* --- lifecycle ---------------------------------------------------------- *)

let bind_socket = function
  | Unix_path path ->
      (* a stale socket file from a previous run would fail the bind *)
      (if Sys.file_exists path then
         try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.bind fd (Unix.ADDR_UNIX path)
       with e -> Unix.close fd; raise e);
      (fd, Some path)
  | Tcp (host, port) ->
      let inet =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          try (Unix.gethostbyname host).Unix.h_addr_list.(0)
          with Not_found ->
            raise
              (Unix.Unix_error
                 (Unix.EINVAL, "gethostbyname", host)))
      in
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         Unix.setsockopt fd Unix.SO_REUSEADDR true;
         Unix.bind fd (Unix.ADDR_INET (inet, port))
       with e -> Unix.close fd; raise e);
      (fd, None)

let start config ~mk_session =
  if config.cf_domains < 1 then invalid_arg "Listener.start: domains < 1";
  if config.cf_retry_after_ms < 0 then
    invalid_arg "Listener.start: retry_after_ms < 0";
  if config.cf_idle_timeout_ms < 0. || config.cf_io_timeout_ms < 0. then
    invalid_arg "Listener.start: negative timeout";
  if config.cf_request_deadline_ms < 0. then
    invalid_arg "Listener.start: negative request deadline";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen_fd, unix_path = bind_socket config.cf_addr in
  Unix.listen listen_fd (max 1 config.cf_backlog);
  let bound = Unix.getsockname listen_fd in
  let stop_r, stop_w = Unix.pipe ~cloexec:true () in
  let pool =
    Pool.create ~domains:config.cf_domains ~queue_depth:config.cf_queue_depth
      ()
  in
  let t =
    {
      listen_fd;
      bound;
      unix_path;
      pool;
      depth = config.cf_queue_depth;
      degrade_watermark = config.cf_degrade_watermark;
      retry_after_ms = config.cf_retry_after_ms;
      idle_ms = config.cf_idle_timeout_ms;
      io_ms = config.cf_io_timeout_ms;
      request_deadline_ms = config.cf_request_deadline_ms;
      stop_r;
      stop_w;
      accept_dom = None;
      stopped = Atomic.make false;
      m = Mutex.create ();
      cv = Condition.create ();
      finished = false;
      conns = Hashtbl.create 32;
      conns_m = Mutex.create ();
      inflight = Atomic.make 0;
    }
  in
  t.accept_dom <- Some (Domain.spawn (accept_loop t mk_session));
  t

let sockaddr t = t.bound

let port t =
  match t.bound with Unix.ADDR_INET (_, p) -> Some p | _ -> None

let inflight t = Atomic.get t.inflight

let stop ?(drain_ms = 0) t =
  if not (Atomic.exchange t.stopped true) then begin
    (* wake the accept loop *)
    (try ignore (Unix.write t.stop_w (Bytes.of_string "x") 0 1)
     with Unix.Unix_error _ -> ());
    (match t.accept_dom with
    | Some d ->
        Domain.join d;
        t.accept_dom <- None
    | None -> ());
    (* graceful drain: no new connections are accepted any more; give
       requests already executing up to [drain_ms] to finish and flush
       before the forced disconnect below cuts the stragglers off *)
    if drain_ms > 0 then begin
      let deadline = Obs.Metrics.now_ms () +. float_of_int drain_ms in
      while Atomic.get t.inflight > 0 && Obs.Metrics.now_ms () < deadline do
        Unix.sleepf 0.005
      done
    end;
    (* force-disconnect live clients so workers drain promptly *)
    disconnect_all t;
    Pool.shutdown t.pool;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (try Unix.close t.stop_r with Unix.Unix_error _ -> ());
    (try Unix.close t.stop_w with Unix.Unix_error _ -> ());
    (match t.unix_path with
    | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
    | None -> ());
    Mutex.protect t.m (fun () ->
        t.finished <- true;
        Condition.broadcast t.cv)
  end

let wait t =
  Mutex.protect t.m (fun () ->
      while not t.finished do
        Condition.wait t.cv t.m
      done)
