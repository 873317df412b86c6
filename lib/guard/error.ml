(* Typed taxonomy for failures contained by the rewrite-pipeline sandbox.

   The stage says where in the planning/execution path the exception was
   caught (overridden by the injection point for injected faults, which
   know exactly where they struck); the kind preserves what the exception
   was, so EXPLAIN and \health output stays diagnosable without ever
   letting the raw exception escape to the user. *)

type stage =
  | Navigate
  | Match
  | Compensate
  | Translate
  | Validate
  | Plan
  | Execute
  | Verify
  | Refresh
  | Accept
  | Durability

type kind =
  | Injected                 (* Fault.Injected: deterministic test fault *)
  | Assertion                (* Assert_failure *)
  | Invalid of string        (* Invalid_argument *)
  | Div_zero                 (* Division_by_zero (e.g. constant folding) *)
  | Failed of string         (* Failure / failwith *)
  | Resource of string       (* Stack_overflow / Out_of_memory *)
  | Ill_formed of string     (* static IR validation failed *)
  | Unexpected of string     (* anything else, via Printexc *)

type t = { err_stage : stage; err_kind : kind; err_mv : string option }

exception Fatal of t

let stage_name = function
  | Navigate -> "navigate"
  | Match -> "match"
  | Compensate -> "compensate"
  | Translate -> "translate"
  | Validate -> "validate"
  | Plan -> "plan"
  | Execute -> "execute"
  | Verify -> "verify"
  | Refresh -> "refresh"
  | Accept -> "accept"
  | Durability -> "durability"

let stage_of_point = function
  | Fault.Navigate -> Navigate
  | Fault.Match -> Match
  | Fault.Compensate -> Compensate
  | Fault.Translate -> Translate
  | Fault.Corrupt -> Verify
  | Fault.Corrupt_plan -> Validate
  | Fault.Refresh -> Refresh
  | Fault.Delay -> Match
  | Fault.Accept -> Accept
  | Fault.Plan -> Plan
  | Fault.Execute -> Execute
  (* wire faults strike while a connection is being served; same
     containment domain as the accept/handler path *)
  | Fault.Wire_partial_write | Fault.Wire_stall_read | Fault.Wire_disconnect
  | Fault.Wire_corrupt ->
      Accept
  | Fault.Wal_append | Fault.Wal_fsync | Fault.Checkpoint_write
  | Fault.Checkpoint_rename ->
      Durability

let kind_name = function
  | Injected -> "injected fault"
  | Assertion -> "assertion failure"
  | Invalid m -> Printf.sprintf "invalid argument (%s)" m
  | Div_zero -> "division by zero"
  | Failed m -> Printf.sprintf "failure (%s)" m
  | Resource m -> Printf.sprintf "resource exhaustion (%s)" m
  | Ill_formed m -> Printf.sprintf "ill-formed IR (%s)" m
  | Unexpected m -> Printf.sprintf "unexpected exception (%s)" m

let classify ~stage ?mv exn =
  let stage, kind =
    match exn with
    | Fault.Injected p -> (stage_of_point p, Injected)
    | Assert_failure _ -> (stage, Assertion)
    | Invalid_argument m -> (stage, Invalid m)
    | Division_by_zero -> (stage, Div_zero)
    | Failure m -> (stage, Failed m)
    | Stack_overflow -> (stage, Resource "stack overflow")
    | Out_of_memory -> (stage, Resource "out of memory")
    | e -> (stage, Unexpected (Printexc.to_string e))
  in
  { err_stage = stage; err_kind = kind; err_mv = mv }

let to_string e =
  Printf.sprintf "%s error%s: %s" (stage_name e.err_stage)
    (match e.err_mv with None -> "" | Some mv -> " on " ^ mv)
    (kind_name e.err_kind)

let pp fmt e = Format.pp_print_string fmt (to_string e)

let () =
  Printexc.register_printer (function
    | Fatal e -> Some (Printf.sprintf "Guard.Error.Fatal(%s)" (to_string e))
    | _ -> None)
