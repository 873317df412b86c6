type reason = Deadline | Match_budget | Candidate_budget | Row_budget

exception Budget_exhausted of reason

let reason_name = function
  | Deadline -> "deadline"
  | Match_budget -> "match-budget"
  | Candidate_budget -> "candidate-budget"
  | Row_budget -> "row-budget"

type limits = {
  bl_deadline_ms : float option;
  bl_matches : int option;
  bl_candidates : int option;
  bl_rows : int option;
}

let unlimited =
  { bl_deadline_ms = None; bl_matches = None; bl_candidates = None;
    bl_rows = None }

let is_unlimited l = l = unlimited

let limits ?deadline_ms ?matches ?candidates ?rows () =
  { bl_deadline_ms = deadline_ms; bl_matches = matches;
    bl_candidates = candidates; bl_rows = rows }

(* The one validity rule for a configured limit, shared by the environment,
   the command-line flags and astql's \limits: a deadline is a finite
   number of milliseconds > 0, a count an integer > 0. A negative deadline
   would exhaust every statement and nan none, so neither may pass. *)
let parse_deadline_ms ~name s =
  match float_of_string_opt (String.trim s) with
  | Some d when Float.is_finite d && d > 0. -> Ok d
  | _ ->
      Error
        (Printf.sprintf "bad %s %S (expected a finite number of ms > 0)" name s)

let parse_count ~name s =
  match int_of_string_opt (String.trim s) with
  | Some n when n > 0 -> Ok n
  | _ -> Error (Printf.sprintf "bad %s %S (expected an integer > 0)" name s)

let env parse name =
  match Sys.getenv_opt name with
  | None | Some "" -> None
  | Some s -> (
      match parse ~name s with Ok v -> Some v | Error m -> invalid_arg m)

let default_limits () =
  { unlimited with
    bl_deadline_ms = env parse_deadline_ms "ASTQL_DEADLINE_MS";
    bl_matches = env parse_count "ASTQL_MATCH_BUDGET" }

let describe l =
  let parts =
    List.filter_map Fun.id
      [
        Option.map (fun d -> Printf.sprintf "deadline=%gms" d)
          l.bl_deadline_ms;
        Option.map (Printf.sprintf "matches=%d") l.bl_matches;
        Option.map (Printf.sprintf "candidates=%d") l.bl_candidates;
        Option.map (Printf.sprintf "rows=%d") l.bl_rows;
      ]
  in
  if parts = [] then "unlimited" else String.concat " " parts

type t = {
  b_limits : limits;
  b_start_ms : float;
  mutable b_matches : int;
  mutable b_candidates : int;
  mutable b_rows : int;
  mutable b_exhausted : reason option;
}

let now_ms () = Unix.gettimeofday () *. 1000.

let start l =
  { b_limits = l; b_start_ms = now_ms (); b_matches = 0; b_candidates = 0;
    b_rows = 0; b_exhausted = None }

let exhausted b = b.b_exhausted

let m_exhausted = Obs.Metrics.counter "govern.budget_exhausted"

let exhaust b reason =
  (* Count each statement's exhaustion once, not every unwinding check. *)
  if b.b_exhausted = None then begin
    b.b_exhausted <- Some reason;
    Obs.Metrics.incr m_exhausted
  end;
  raise (Budget_exhausted reason)

let check_deadline = function
  | None -> ()
  | Some b -> (
      match b.b_limits.bl_deadline_ms with
      | None -> ()
      | Some d -> if now_ms () -. b.b_start_ms > d then exhaust b Deadline)

let deadline_spent = function
  | None -> false
  | Some b -> (
      match b.b_limits.bl_deadline_ms with
      | None -> false
      | Some d -> now_ms () -. b.b_start_ms > d)

let over limit count = match limit with Some l -> count > l | None -> false

let tick_match bo =
  match bo with
  | None -> ()
  | Some b ->
      b.b_matches <- b.b_matches + 1;
      if over b.b_limits.bl_matches b.b_matches then exhaust b Match_budget;
      check_deadline bo

let tick_candidate bo =
  match bo with
  | None -> ()
  | Some b ->
      b.b_candidates <- b.b_candidates + 1;
      if over b.b_limits.bl_candidates b.b_candidates then
        exhaust b Candidate_budget;
      check_deadline bo

let tick_rows bo n =
  match bo with
  | None -> ()
  | Some b ->
      b.b_rows <- b.b_rows + n;
      if over b.b_limits.bl_rows b.b_rows then exhaust b Row_budget;
      check_deadline bo
