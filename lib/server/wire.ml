(* Request/response marshalling. The error record follows the structured
   style of client libraries that wrap server errors in one flat struct
   (code, message, where, what, which object, which statement) instead of
   a bare string — the client can switch on [we_code]/[we_stage] without
   parsing prose. *)

module J = Obs.Json

type error = {
  we_code : string;
  we_msg : string;
  we_stage : string option;
  we_kind : string option;
  we_mv : string option;
  we_statement : string option;
  we_retry_after_ms : int option;
}

type request = {
  rq_id : J.t;
  rq_sql : string;
  rq_rewrite : bool option;
  rq_deadline_ms : float option;
}

type outcome =
  | Msg of string
  | Table of string list * Data.Value.t array list
  | Plan of string

type reply = {
  rp_id : J.t;
  rp_ms : float;
  rp_results : outcome list;
  rp_degraded : string list;
}

type response = Reply of reply | Failed of J.t * error

(* --- values ------------------------------------------------------------- *)

(* one codec for the wire and the WAL *)
let value_to_json = Durable.Codec.value_to_json
let value_of_json = Durable.Codec.value_of_json

(* --- errors ------------------------------------------------------------- *)

let kind_name (k : Guard.Error.kind) =
  match k with
  | Guard.Error.Injected -> "injected"
  | Guard.Error.Assertion -> "assertion"
  | Guard.Error.Invalid _ -> "invalid_argument"
  | Guard.Error.Div_zero -> "div_zero"
  | Guard.Error.Failed _ -> "failed"
  | Guard.Error.Resource _ -> "resource"
  | Guard.Error.Ill_formed _ -> "ill_formed"
  | Guard.Error.Unexpected _ -> "unexpected"

let mk_error ?stage ?kind ?mv ?statement ?retry_after_ms code msg =
  {
    we_code = code;
    we_msg = msg;
    we_stage = stage;
    we_kind = kind;
    we_mv = mv;
    we_statement = statement;
    we_retry_after_ms = retry_after_ms;
  }

let of_classified ~code ~sql (e : Guard.Error.t) =
  mk_error
    ~stage:(Guard.Error.stage_name e.Guard.Error.err_stage)
    ~kind:(kind_name e.Guard.Error.err_kind)
    ?mv:e.Guard.Error.err_mv ~statement:sql code (Guard.Error.to_string e)

let error_of_exn ~sql exn =
  match exn with
  | Mvstore.Session.Session_error msg ->
      mk_error ~statement:sql "session_error" msg
  | Guard.Error.Fatal e -> of_classified ~code:"fatal" ~sql e
  | exn ->
      let e = Guard.Error.classify ~stage:Guard.Error.Accept exn in
      let code =
        match e.Guard.Error.err_kind with
        | Guard.Error.Injected -> "fault_injected"
        | _ -> "error"
      in
      of_classified ~code ~sql e

let overloaded_error ~queue_depth ~retry_after_ms =
  mk_error ~retry_after_ms "overloaded"
    (Printf.sprintf
       "server overloaded: all workers busy and the waiting queue (depth \
        %d) is full; retry in %d ms"
       queue_depth retry_after_ms)

let opt_str = function None -> J.Null | Some s -> J.Str s

let error_to_json e =
  J.Obj
    ([
       ("code", J.Str e.we_code);
       ("msg", J.Str e.we_msg);
       ("stage", opt_str e.we_stage);
       ("kind", opt_str e.we_kind);
       ("mv", opt_str e.we_mv);
       ("statement", opt_str e.we_statement);
     ]
    @
    match e.we_retry_after_ms with
    | None -> []
    | Some ms -> [ ("retry_after_ms", J.Int ms) ])

let error_to_string e =
  let ctx =
    List.filter_map
      (fun (k, v) -> Option.map (fun v -> k ^ "=" ^ v) v)
      [
        ("stage", e.we_stage);
        ("kind", e.we_kind);
        ("mv", e.we_mv);
        ( "retry_after_ms",
          Option.map string_of_int e.we_retry_after_ms );
      ]
  in
  Printf.sprintf "%s: %s%s" e.we_code e.we_msg
    (if ctx = [] then "" else " [" ^ String.concat ", " ctx ^ "]")

(* --- requests ----------------------------------------------------------- *)

let request_to_json r =
  let opts =
    (match r.rq_rewrite with
    | None -> []
    | Some b -> [ ("rewrite", J.Bool b) ])
    @
    match r.rq_deadline_ms with
    | None -> []
    | Some d -> [ ("deadline_ms", J.Float d) ]
  in
  let base = [ ("id", r.rq_id); ("sql", J.Str r.rq_sql) ] in
  match opts with
  | [] -> J.Obj base
  | opts -> J.Obj (base @ [ ("opts", J.Obj opts) ])

(* Strict typing on the recognized opts: a client that sends
   {"rewrite": "yes"} or a negative deadline made a mistake, and silently
   ignoring it would execute the request under different semantics than
   the client asked for. Unknown opts fields stay ignored (forward
   compatibility) — only a recognized name with a wrong type is an
   error. *)
let request_of_line line =
  let bad msg = Error (mk_error ~statement:line "bad_request" msg) in
  match J.of_string line with
  | Error msg -> bad ("request is not valid JSON: " ^ msg)
  | Ok (J.Obj _ as obj) -> (
      let id = Option.value ~default:J.Null (J.member "id" obj) in
      match J.member "sql" obj with
      | Some (J.Str sql) -> (
          let opts =
            match J.member "opts" obj with
            | None -> Ok (None, None)
            | Some (J.Obj _ as opts) -> (
                let rewrite =
                  match J.member "rewrite" opts with
                  | None -> Ok None
                  | Some (J.Bool b) -> Ok (Some b)
                  | Some _ -> Error "\"opts.rewrite\" must be a boolean"
                in
                let deadline =
                  match J.member "deadline_ms" opts with
                  | None -> Ok None
                  | Some (J.Int n) when n > 0 -> Ok (Some (float_of_int n))
                  | Some (J.Float x | J.Num x) when x > 0. -> Ok (Some x)
                  | Some _ ->
                      Error "\"opts.deadline_ms\" must be a positive number"
                in
                match (rewrite, deadline) with
                | Ok r, Ok d -> Ok (r, d)
                | Error m, _ | _, Error m -> Error m)
            | Some _ -> Error "\"opts\" must be an object"
          in
          match opts with
          | Error m -> bad m
          | Ok (rewrite, deadline_ms) ->
              Ok
                {
                  rq_id = id;
                  rq_sql = sql;
                  rq_rewrite = rewrite;
                  rq_deadline_ms = deadline_ms;
                })
      | Some _ -> bad "\"sql\" must be a string"
      | None -> bad "request object has no \"sql\" field")
  | Ok _ -> bad "request must be a JSON object"

(* --- responses ---------------------------------------------------------- *)

let outcome_to_json (o : Mvstore.Session.outcome) =
  match o with
  | Mvstore.Session.Msg s ->
      J.Obj [ ("type", J.Str "msg"); ("text", J.Str s) ]
  | Mvstore.Session.Plan s ->
      J.Obj [ ("type", J.Str "plan"); ("text", J.Str s) ]
  | Mvstore.Session.Table rel ->
      let cols =
        Array.to_list (Data.Relation.columns rel)
        |> List.map (fun c -> J.Str c)
      in
      let rows =
        List.map
          (fun row ->
            J.List (Array.to_list (Array.map value_to_json row)))
          (Data.Relation.rows rel)
      in
      J.Obj
        [ ("type", J.Str "table"); ("columns", J.List cols);
          ("rows", J.List rows) ]

let response_ok ?(degraded = []) ~id ~ms outcomes =
  J.Obj
    ([ ("id", id); ("ok", J.Bool true); ("ms", J.Float ms) ]
    @ (match degraded with
      | [] -> []
      | ds -> [ ("degraded", J.List (List.map (fun d -> J.Str d) ds)) ])
    @ [ ("results", J.List (List.map outcome_to_json outcomes)) ])

let response_error ~id e =
  J.Obj [ ("id", id); ("ok", J.Bool false); ("error", error_to_json e) ]

let decode_row j =
  match j with
  | J.List vs ->
      let arr = Array.of_list vs in
      let out = Array.make (Array.length arr) Data.Value.Null in
      let rec go i =
        if i >= Array.length arr then Ok out
        else
          match value_of_json arr.(i) with
          | Ok v ->
              out.(i) <- v;
              go (i + 1)
          | Error _ as e -> e
      in
      go 0
  | _ -> Error "row is not an array"

let decode_outcome j =
  match J.member "type" j with
  | Some (J.Str "msg") -> (
      match J.member "text" j with
      | Some (J.Str s) -> Ok (Msg s)
      | _ -> Error "msg outcome has no text")
  | Some (J.Str "plan") -> (
      match J.member "text" j with
      | Some (J.Str s) -> Ok (Plan s)
      | _ -> Error "plan outcome has no text")
  | Some (J.Str "table") -> (
      match (J.member "columns" j, J.member "rows" j) with
      | Some (J.List cols), Some (J.List rows) ->
          let col_names =
            List.map
              (function J.Str s -> Ok s | _ -> Error "bad column name")
              cols
          in
          if List.exists Result.is_error col_names then
            Error "bad column name"
          else
            let cols = List.map Result.get_ok col_names in
            let rec go acc = function
              | [] -> Ok (Table (cols, List.rev acc))
              | r :: rest -> (
                  match decode_row r with
                  | Ok row -> go (row :: acc) rest
                  | Error _ as e -> e)
            in
            go [] rows
      | _ -> Error "table outcome missing columns/rows")
  | _ -> Error "outcome has no recognized type"

let decode_error j =
  let str k = match J.member k j with Some (J.Str s) -> Some s | _ -> None in
  {
    we_code = Option.value ~default:"error" (str "code");
    we_msg = Option.value ~default:"" (str "msg");
    we_stage = str "stage";
    we_kind = str "kind";
    we_mv = str "mv";
    we_statement = str "statement";
    we_retry_after_ms =
      (match J.member "retry_after_ms" j with
      | Some (J.Int n) -> Some n
      | Some (J.Float x | J.Num x) -> Some (int_of_float x)
      | _ -> None);
  }

let response_of_line line =
  match J.of_string line with
  | Error msg -> Error ("response is not valid JSON: " ^ msg)
  | Ok obj -> (
      let id = Option.value ~default:J.Null (J.member "id" obj) in
      match J.member "ok" obj with
      | Some (J.Bool true) -> (
          let ms =
            match J.member "ms" obj with
            | Some (J.Float x | J.Num x) -> x
            | Some (J.Int n) -> float_of_int n
            | _ -> 0.
          in
          let degraded =
            match J.member "degraded" obj with
            | Some (J.List ds) ->
                List.filter_map
                  (function J.Str s -> Some s | _ -> None)
                  ds
            | _ -> []
          in
          match J.member "results" obj with
          | Some (J.List rs) ->
              let rec go acc = function
                | [] ->
                    Ok
                      (Reply
                         {
                           rp_id = id;
                           rp_ms = ms;
                           rp_results = List.rev acc;
                           rp_degraded = degraded;
                         })
                | r :: rest -> (
                    match decode_outcome r with
                    | Ok o -> go (o :: acc) rest
                    | Error _ as e -> e)
              in
              go [] rs
          | _ -> Error "ok response has no results array")
      | Some (J.Bool false) -> (
          match J.member "error" obj with
          | Some e -> Ok (Failed (id, decode_error e))
          | None -> Error "error response has no error object")
      | _ -> Error "response has no \"ok\" field")
