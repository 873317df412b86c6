(* Structured planning traces: a tree of spans recording one planning
   attempt — navigate -> candidate -> match pattern -> compensation ->
   translate -> cost — where every rejection carries a typed reason.

   A trace is threaded as a [t option]: [None] is the always-on production
   mode and costs nothing (every hook is a match on [None]); [Some t]
   records spans with wall-clock timings. Sessions keep recent traces in a
   ring buffer (astql \trace show); EXPLAIN REWRITE VERBOSE renders one. *)

(* Why a candidate pair, pattern, or whole summary table was rejected.
   These are the machine-readable counterparts of the conditions in paper
   sections 4.1-4.2 and 5.1: every [None] in the match function's rejection
   paths maps to exactly one constructor, so EXPLAIN and the trace agree. *)
type reason =
  | Child_mismatch
  | Outputs_not_covered
  | Extra_not_lossless
  | Summary_pred_unmatched
  | Pred_not_derivable of string
  | Output_not_derivable
  | Grouping_not_translatable
  | Agg_not_preserved
  | Agg_rule_inapplicable of string
  | No_covering_cuboid
  | Cost_not_better of float * float
  | Filtered_by_index
  | Quarantined
  | Contained_error of string
  | Ir_invalid of string
  | Unsupported of string
  | Prove_unknown of string

let reason_code = function
  | Child_mismatch -> "child-mismatch"
  | Outputs_not_covered -> "outputs-not-covered"
  | Extra_not_lossless -> "extra-not-lossless"
  | Summary_pred_unmatched -> "summary-pred-unmatched"
  | Pred_not_derivable _ -> "predicate-not-derivable"
  | Output_not_derivable -> "output-not-derivable"
  | Grouping_not_translatable -> "grouping-not-translatable"
  | Agg_not_preserved -> "aggregate-not-preserved"
  | Agg_rule_inapplicable _ -> "aggregate-rule-inapplicable"
  | No_covering_cuboid -> "no-covering-cuboid"
  | Cost_not_better _ -> "cost-not-better"
  | Filtered_by_index -> "filtered-by-index"
  | Quarantined -> "quarantined"
  | Contained_error _ -> "contained-error"
  | Ir_invalid _ -> "invalid-ir"
  | Unsupported _ -> "unsupported-shape"
  | Prove_unknown _ -> "proof-unknown"

let describe = function
  | Child_mismatch -> "no pairing of query children with summary children matches"
  | Outputs_not_covered ->
      "the match does not reproduce every output column of the replaced box"
  | Extra_not_lossless ->
      "an extra summary-side join could not be proven lossless (no RI key \
       join, or extra predicates on the extra table)"
  | Summary_pred_unmatched ->
      "a summary predicate has no matching query predicate (the summary \
       filtered away rows the query needs)"
  | Pred_not_derivable p ->
      Printf.sprintf
        "query predicate %s is not derivable from the summary's outputs" p
  | Output_not_derivable ->
      "none of the query's output columns are derivable from the summary"
  | Grouping_not_translatable ->
      "a grouping column of the query cannot be translated into the \
       summary's context"
  | Agg_not_preserved ->
      "an aggregate argument of the query is not preserved by the summary"
  | Agg_rule_inapplicable a ->
      Printf.sprintf "no aggregate derivation rule (a)-(g) applies to %s" a
  | No_covering_cuboid ->
      "no summary grouping set covers the query's grouping columns, \
       pulled-up predicates and aggregates simultaneously"
  | Cost_not_better (cand, cur) ->
      Printf.sprintf
        "estimated cost %.0f does not beat the current plan's %.0f" cand cur
  | Filtered_by_index ->
      "filtered by the candidate index (footprint or eligibility bits)"
  | Quarantined -> "held in quarantine for this query fingerprint"
  | Contained_error e -> Printf.sprintf "contained error: %s" e
  | Ir_invalid v ->
      Printf.sprintf "static IR validation failed: %s" v
  | Unsupported d -> d
  | Prove_unknown w ->
      Printf.sprintf "static proof unavailable: %s" w

(* ---------------- spans ---------------- *)

type outcome = Step | Accepted of string | Rejected of reason

type span = {
  sp_kind : string;
  sp_label : string;
  mutable sp_ms : float;
  mutable sp_outcome : outcome;
  mutable sp_children : span list;  (* newest first; render reverses *)
}

type t = {
  mutable tr_roots : span list;  (* newest first *)
  mutable tr_stack : span list;  (* innermost open span first *)
}

let create () = { tr_roots = []; tr_stack = [] }

let attach tr sp =
  match tr.tr_stack with
  | parent :: _ -> parent.sp_children <- sp :: parent.sp_children
  | [] -> tr.tr_roots <- sp :: tr.tr_roots

let with_span trace ~kind ~label ?result f =
  match trace with
  | None -> f ()
  | Some tr ->
      let sp =
        { sp_kind = kind; sp_label = label; sp_ms = 0.; sp_outcome = Step;
          sp_children = [] }
      in
      attach tr sp;
      tr.tr_stack <- sp :: tr.tr_stack;
      let t0 = Unix.gettimeofday () in
      let finish () =
        sp.sp_ms <- (Unix.gettimeofday () -. t0) *. 1000.;
        tr.tr_stack <- List.tl tr.tr_stack
      in
      let v = try f () with e -> finish (); raise e in
      (match result with Some r -> sp.sp_outcome <- r v | None -> ());
      finish ();
      v

let leaf trace ~kind ~label outcome =
  match trace with
  | None -> ()
  | Some tr ->
      (* dedup: the match function legitimately re-derives the same verdict
         for sibling attempts; an identical leaf under the same parent says
         nothing new *)
      let dup =
        let head =
          match tr.tr_stack with
          | parent :: _ -> parent.sp_children
          | [] -> tr.tr_roots
        in
        match head with
        | s :: _ ->
            s.sp_kind = kind && s.sp_label = label && s.sp_outcome = outcome
            && s.sp_children = []
        | [] -> false
      in
      if not dup then
        attach tr
          { sp_kind = kind; sp_label = label; sp_ms = 0.; sp_outcome = outcome;
            sp_children = [] }

let event trace ~kind ~label = leaf trace ~kind ~label Step
let accept trace ~kind ~label detail = leaf trace ~kind ~label (Accepted detail)
let reject trace ~kind ~label reason = leaf trace ~kind ~label (Rejected reason)

let roots tr = List.rev tr.tr_roots

let rejections tr =
  let rec go acc sp =
    let acc =
      match sp.sp_outcome with Rejected r -> r :: acc | Step | Accepted _ -> acc
    in
    List.fold_left go acc (List.rev sp.sp_children)
  in
  List.rev (List.fold_left go [] (roots tr))

let render tr =
  let buf = Buffer.create 512 in
  let rec go depth sp =
    Buffer.add_string buf (String.make (depth * 2) ' ');
    let head =
      if sp.sp_label = "" then sp.sp_kind
      else Printf.sprintf "%s %s" sp.sp_kind sp.sp_label
    in
    Buffer.add_string buf head;
    (match sp.sp_outcome with
    | Step -> ()
    | Accepted "" -> Buffer.add_string buf ": accepted"
    | Accepted d -> Buffer.add_string buf (Printf.sprintf ": accepted (%s)" d)
    | Rejected r ->
        Buffer.add_string buf
          (Printf.sprintf ": rejected — %s [%s]" (describe r) (reason_code r)));
    if sp.sp_ms > 0. then
      Buffer.add_string buf (Printf.sprintf "  (%.2fms)" sp.sp_ms);
    Buffer.add_char buf '\n';
    List.iter (go (depth + 1)) (List.rev sp.sp_children)
  in
  List.iter (go 0) (roots tr);
  Buffer.contents buf

(* ---------------- per-session ring buffer ---------------- *)

type ring = {
  rg_capacity : int;
  mutable rg_items : (string * t) list;  (* newest first *)
}

let ring ?(capacity = 16) () = { rg_capacity = max 1 capacity; rg_items = [] }

let push rg label tr =
  let items = (label, tr) :: rg.rg_items in
  rg.rg_items <-
    (if List.length items > rg.rg_capacity then
       List.filteri (fun i _ -> i < rg.rg_capacity) items
     else items)

let items rg = List.rev rg.rg_items
let ring_length rg = List.length rg.rg_items
let clear rg = rg.rg_items <- []
