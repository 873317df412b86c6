(** The astql wire protocol: one JSON value per line, both directions.

    {2 Requests}

    {[ {"id": <any>, "sql": "<statements>", "opts": {...}} ]}

    - [id] is echoed verbatim in the response (clients correlate; [null]
      when omitted).
    - [sql] is a semicolon-separated script, executed statement by
      statement exactly like a REPL line.
    - [opts] is optional; recognized fields: ["rewrite"] ([bool], default
      true) disables transparent summary-table routing for this request
      only, and ["deadline_ms"] (positive number) bounds planning and
      rewritten execution for this request — on expiry the server answers
      from the degradation ladder (best plan found so far, falling back to
      the base plan) rather than failing. Unknown fields are ignored
      (forward compatibility), but a {e recognized} field with the wrong
      type is a ["bad_request"]: silently ignoring it would execute the
      request under different semantics than the client asked for.

    {2 Responses}

    Success:
    {[ {"id": <echo>, "ok": true, "ms": <float>,
        "degraded": [<string>...],           (only when non-empty)
        "results": [<outcome>...]} ]}
    where an outcome is one of
    {[ {"type": "msg", "text": <string>}
       {"type": "table", "columns": [<string>...], "rows": [[<value>...]...]}
       {"type": "plan", "text": <string>} ]}
    ["degraded"] lists why the answer was served below full quality —
    budget-exhaustion reasons (["deadline"], ["match-budget"], ...) and/or
    ["overload"] when the server was shedding rewrite work under queue
    pressure. The results themselves are always correct (the ladder floor
    is the base plan); the annotation tells the client the answer may have
    been slower than a fully-rewritten one.

    Failure — the structured error record carries the same taxonomy the
    sandbox uses internally ({!Guard.Error}), so a client can distinguish
    a parse error from an injected fault from resource exhaustion without
    string matching:
    {[ {"id": <echo>, "ok": false,
        "error": {"code": <string>, "msg": <string>,
                  "stage": <string|null>, "kind": <string|null>,
                  "mv": <string|null>, "statement": <string|null>,
                  "retry_after_ms": <int>}} ]}
    ([retry_after_ms] only on ["overloaded"]: the client should back off
    at least that long before reconnecting.)

    Codes: ["bad_request"] (not JSON / missing [sql] / wrong-typed
    recognized opt / oversize frame), ["session_error"] (parse/semantic/
    runtime statement failure), ["fatal"] (resource exhaustion,
    {!Guard.Error.Fatal}), ["overloaded"] (queue full — sent before any
    request is read, [id] is [null]), ["fault_injected"] (armed test
    fault), ["error"] (anything else, classified).

    {2 Values}

    SQL values marshal as the natural JSON scalar; the two cases JSON
    cannot express directly are tagged one-field objects so a typed
    round-trip is exact: dates as [{"date": yyyymmdd}] and non-finite
    floats as [{"float": "nan"|"inf"|"-inf"}]. *)

type error = {
  we_code : string;
  we_msg : string;
  we_stage : string option;
  we_kind : string option;
  we_mv : string option;
  we_statement : string option;
  we_retry_after_ms : int option;
      (** backoff hint, only on ["overloaded"] *)
}

type request = {
  rq_id : Obs.Json.t;  (** echoed verbatim; [Null] when absent *)
  rq_sql : string;
  rq_rewrite : bool option;  (** [opts.rewrite] *)
  rq_deadline_ms : float option;  (** [opts.deadline_ms] *)
}

(** Client-side decoded outcome (mirrors {!Mvstore.Session.outcome} without
    depending on engine internals). *)
type outcome =
  | Msg of string
  | Table of string list * Data.Value.t array list
  | Plan of string

type reply = {
  rp_id : Obs.Json.t;
  rp_ms : float;
  rp_results : outcome list;
  rp_degraded : string list;  (** [[]] = full-quality answer *)
}

(** A decoded response line. *)
type response = Reply of reply | Failed of Obs.Json.t * error

(** The value codec of {!Durable.Codec}, shared with the WAL. *)
val value_to_json : Data.Value.t -> Obs.Json.t
val value_of_json : Obs.Json.t -> (Data.Value.t, string) result

(** Build an error record; [code] then [msg]. *)
val mk_error :
  ?stage:string ->
  ?kind:string ->
  ?mv:string ->
  ?statement:string ->
  ?retry_after_ms:int ->
  string ->
  string ->
  error

(** Parse one request line. On error, a ["bad_request"] record (with the
    offending line as [we_statement]) ready to send back. *)
val request_of_line : string -> (request, error) result

val request_to_json : request -> Obs.Json.t

val response_ok :
  ?degraded:string list ->
  id:Obs.Json.t ->
  ms:float ->
  Mvstore.Session.outcome list ->
  Obs.Json.t

val response_error : id:Obs.Json.t -> error -> Obs.Json.t

(** Decode one response line (client side). *)
val response_of_line : string -> (response, string) result

(** Classify an exception raised while serving [sql] into a wire error.
    [Session_error] keeps its message; {!Guard.Error.Fatal} and everything
    else marshal the {!Guard.Error} taxonomy. *)
val error_of_exn : sql:string -> exn -> error

val overloaded_error : queue_depth:int -> retry_after_ms:int -> error
val error_to_string : error -> string
