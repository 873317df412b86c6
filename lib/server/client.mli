(** Client side of the wire protocol: connect, send one request line,
    read one response line — plus a retrying request that survives the
    network faults the chaos harness injects.

    A connection is not thread-safe (one outstanding request at a time);
    that mirrors the server, which serves a connection's requests strictly
    in order. Concurrent load wants one connection per thread/domain.

    {2 Retry discipline}

    {!request_robust} splits failures three ways:
    - the request line never made it out intact (connect/write failure):
      the server cannot execute a partial, newline-less line, so the retry
      is always safe;
    - a decoded typed error: definitive (failed statements publish
      nothing). [overloaded] and [fault_injected] retry — an overloaded
      server's [retry_after_ms] hint is honored as the backoff floor; the
      other codes would fail identically again and do not;
    - anything between a written request and a decoded reply (EOF,
      response timeout, corrupted reply): the acknowledgement is
      {e ambiguous}, so the retry happens only for idempotent scripts —
      by default, scripts whose statements are all reads
      ({!sql_idempotent}); a DML script whose fate is unknown surfaces the
      failure instead of risking a double execution.

    Reconnects between attempts use bounded exponential backoff with
    jitter (50-100% of the computed delay), so a fleet of shed clients
    does not reconverge in one synchronized wave. *)

type t

type failure =
  | Server_error of Wire.error  (** decoded typed error reply *)
  | Conn_error of string        (** client-local: connect, send, await *)

val failure_to_string : failure -> string

(** [connect addr] — same address syntax as the server
    ({!Listener.parse_addr}): ["host:port"] or a Unix-socket path.
    Raises [Failure] on a bad address, [Unix.Unix_error] when the
    connection is refused.

    [?retries] (default 0) retries connection establishment with bounded
    exponential backoff (50ms doubling, capped at 1s per wait) — for
    scripts racing a server that is still booting or recovering a WAL.
    The same budget governs each reconnect {!request_robust} makes.

    [?timeout_ms] (default [0.] = block forever) bounds the wait for each
    response — first byte and every later chunk — and the client's own
    writes. On expiry {!request} raises {!Lineio.Read_timeout};
    {!request_robust} turns it into a retryable/final {!failure}. *)
val connect : ?retries:int -> ?timeout_ms:float -> string -> t

val connect_addr : ?retries:int -> ?timeout_ms:float -> Listener.addr -> t

(** Adjust the response timeout ([0.] disables). *)
val set_timeout_ms : t -> float -> unit

(** [request t sql] sends one request and blocks for its response — one
    attempt, no retries. [Ok reply] on success; [Error err] is the
    server's typed error (including [overloaded]). Raises [End_of_file]
    if the server hangs up without answering, {!Lineio.Read_timeout} on
    response timeout, [Failure] on a malformed response line.
    [?deadline_ms] is sent as the request's [opts.deadline_ms]. *)
val request :
  t ->
  ?id:Obs.Json.t ->
  ?rewrite:bool ->
  ?deadline_ms:float ->
  string ->
  (Wire.reply, Wire.error) result

(** [request_robust t sql] — up to [?attempts] (default 5) tries under the
    retry discipline above. Never raises for transport or server
    conditions: every outcome is [Ok reply] or [Error failure] (the last
    failure, when attempts run out or the failure is not retryable).
    Whether an ambiguous failure may be retried is {!sql_idempotent}'s
    verdict on [sql]. *)
val request_robust :
  t ->
  ?id:Obs.Json.t ->
  ?rewrite:bool ->
  ?deadline_ms:float ->
  ?attempts:int ->
  string ->
  (Wire.reply, failure) result

(** [true] when every statement of the script is read-only (so a blind
    resend cannot double-apply anything). Unparseable scripts are
    conservatively treated as writes. *)
val sql_idempotent : string -> bool

val close : t -> unit
