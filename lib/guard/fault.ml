(* Deterministic fault injection for the rewrite pipeline.

   Each injection point carries a one-shot countdown: [arm p ~after:n] makes
   the [n]th subsequent hit of [p] fire (raise {!Injected}, or — for
   [Corrupt] and [Corrupt_plan], which are consumed with {!fire} rather
   than {!hit} — return true), after which the point disarms itself. Tests
   use this to prove the fallback/quarantine/verification invariants
   instead of hoping for them: the pipeline code calls [hit]
   unconditionally, so an armed fault strikes at an exact, reproducible
   call count. Disarmed hits cost one array read. *)

type point =
  | Navigate
  | Match
  | Compensate
  | Translate
  | Corrupt
  | Corrupt_plan
  | Refresh
  | Delay
  | Accept
  | Wal_append
  | Wal_fsync
  | Checkpoint_write
  | Checkpoint_rename
  | Wire_partial_write
  | Wire_stall_read
  | Wire_disconnect
  | Wire_corrupt
  | Plan
  | Execute

exception Injected of point

let point_name = function
  | Navigate -> "navigate"
  | Match -> "match"
  | Compensate -> "compensate"
  | Translate -> "translate"
  | Corrupt -> "corrupt"
  | Corrupt_plan -> "corrupt_plan"
  | Refresh -> "refresh"
  | Delay -> "delay"
  | Accept -> "accept"
  | Wal_append -> "wal_append"
  | Wal_fsync -> "wal_fsync"
  | Checkpoint_write -> "checkpoint_write"
  | Checkpoint_rename -> "checkpoint_rename"
  | Wire_partial_write -> "wire_partial_write"
  | Wire_stall_read -> "wire_stall_read"
  | Wire_disconnect -> "wire_disconnect"
  | Wire_corrupt -> "wire_corrupt"
  | Plan -> "plan"
  | Execute -> "execute"

let all_points =
  [
    Navigate; Match; Compensate; Translate; Corrupt; Corrupt_plan; Refresh;
    Delay; Accept; Wal_append; Wal_fsync; Checkpoint_write; Checkpoint_rename;
    Wire_partial_write; Wire_stall_read; Wire_disconnect; Wire_corrupt; Plan;
    Execute;
  ]

let idx = function
  | Navigate -> 0
  | Match -> 1
  | Compensate -> 2
  | Translate -> 3
  | Corrupt -> 4
  | Refresh -> 5
  | Delay -> 6
  | Accept -> 7
  | Wal_append -> 8
  | Wal_fsync -> 9
  | Checkpoint_write -> 10
  | Checkpoint_rename -> 11
  | Wire_partial_write -> 12
  | Wire_stall_read -> 13
  | Wire_disconnect -> 14
  | Wire_corrupt -> 15
  | Corrupt_plan -> 16
  | Plan -> 17
  | Execute -> 18

let n_points = 19

(* remaining hits before the point fires; None = disarmed *)
let countdown : int option array = Array.make n_points None

let arm p ~after =
  if after <= 0 then invalid_arg "Fault.arm: after must be positive";
  countdown.(idx p) <- Some after

let disarm p = countdown.(idx p) <- None
let disarm_all () = Array.fill countdown 0 (Array.length countdown) None
let armed p = countdown.(idx p) <> None

(* One hit of [p] against the countdowns [counts]: true when it fires,
   which disarms the point. *)
let step counts p =
  match counts.(idx p) with
  | None -> false
  | Some 1 ->
      counts.(idx p) <- None;
      true
  | Some n ->
      counts.(idx p) <- Some (n - 1);
      false

let fire p = step countdown p

let hit p = if fire p then raise (Injected p)

(* [Delay] does not raise: when it fires it stalls the caller, making
   wall-clock deadline paths deterministically reachable in tests. Unlike
   the other points it stays armed after firing (every subsequent hit of
   the site stalls too) so a single arming can push a whole planning pass
   past its deadline. *)

let delay_ms = ref 10.0

let set_delay_ms ms =
  if ms < 0. then invalid_arg "Fault.set_delay_ms: negative delay";
  delay_ms := ms

let maybe_delay () =
  match countdown.(idx Delay) with
  | None -> ()
  | Some 1 -> Unix.sleepf (!delay_ms /. 1000.)
  | Some n -> countdown.(idx Delay) <- Some (n - 1)

(* How long a fired [Wire_stall_read] stalls the serving loop before it
   reads the next request — long enough to trip a client-side response
   timeout when one is set, short enough that a 2 s liveness probe still
   answers after the one-shot stall clears. *)
let wire_stall_ms = ref 250.0

let set_wire_stall_ms ms =
  if ms < 0. then invalid_arg "Fault.set_wire_stall_ms: negative stall";
  wire_stall_ms := ms

(* ---------------- spec strings ---------------- *)

let point_of_name s =
  let s = String.lowercase_ascii (String.trim s) in
  List.find_opt (fun p -> point_name p = s) all_points

(* A comma-separated list of [point] or [point:N] items, each armed by
   [arm]; [what] names the kind of point in the error for an unknown one. *)
let parse_spec ~what ~arm spec =
  let arm_one item =
    let item = String.trim item in
    if item = "" then Ok ()
    else
      let name, after =
        match String.index_opt item ':' with
        | None -> (item, Some 1)
        | Some i ->
            ( String.sub item 0 i,
              int_of_string_opt
                (String.trim
                   (String.sub item (i + 1) (String.length item - i - 1))) )
      in
      match (point_of_name name, after) with
      | None, _ ->
          Error
            (Printf.sprintf "unknown %s %S (expected one of: %s)" what name
               (String.concat ", " (List.map point_name all_points)))
      | Some _, None ->
          Error (Printf.sprintf "bad count in %S (expected point:N, N >= 1)" item)
      | Some _, Some n when n <= 0 ->
          Error (Printf.sprintf "bad count in %S (expected point:N, N >= 1)" item)
      | Some p, Some n ->
          arm p ~after:n;
          Ok ()
  in
  List.fold_left
    (fun acc item -> match acc with Error _ -> acc | Ok () -> arm_one item)
    (Ok ())
    (String.split_on_char ',' spec)

let arm_spec = parse_spec ~what:"injection point" ~arm

let seed_of_env () =
  Option.bind (Sys.getenv_opt "ASTQL_FAULT_SEED") int_of_string_opt

(* ---------------- crash injection ---------------- *)

(* Crash points simulate a power-cut at an exact durability step: when an
   armed crash countdown reaches zero the process SIGKILLs itself — no
   handlers, no atexit, no flushing — exactly what kill -9 leaves behind.
   The torture harness arms these through ASTQL_CRASH and asserts that
   recovery replays every acknowledged write. Kept separate from the
   [countdown] array so exception-based tests ([arm]/[hit]) and
   crash-based runs ([arm_crash]) cannot interfere. *)

let crash_countdown : int option array = Array.make n_points None

let arm_crash p ~after =
  if after <= 0 then invalid_arg "Fault.arm_crash: after must be positive";
  crash_countdown.(idx p) <- Some after

let crash_fire p = step crash_countdown p

let crash_now () =
  (* SIGKILL cannot be caught; the pause loop covers the delivery window *)
  Unix.kill (Unix.getpid ()) Sys.sigkill;
  while true do
    Unix.sleepf 0.01
  done;
  assert false

let crash_hit p = if crash_fire p then crash_now ()

let arm_crash_spec = parse_spec ~what:"crash point" ~arm:arm_crash

(* ---------------- result corruption ---------------- *)

(* A minimal, always-detectable perturbation: simulates a compensation that
   derives an aggregate column incorrectly. *)
let corrupt_value (v : Data.Value.t) : Data.Value.t =
  match v with
  | Data.Value.Int n -> Data.Value.Int (n + 1)
  | Data.Value.Float x -> Data.Value.Float (x +. 1.0)
  | Data.Value.Str s -> Data.Value.Str (s ^ "!")
  | Data.Value.Bool b -> Data.Value.Bool (not b)
  | Data.Value.Date d -> Data.Value.Date (d + 1)
  | Data.Value.Null -> Data.Value.Int 0
