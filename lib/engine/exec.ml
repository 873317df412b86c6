(* Engine dispatcher.

   Two engines implement the QGM operators:
   - [Vector] (default): batch-at-a-time over typed columns ({!Vexec});
   - [Reference]: the naive oracle's operators ({!Reference}), runnable
     under the same memoized recursion so the full test suite can exercise
     it via [ASTQL_EXEC=reference].

   The recursion skeleton ([run_box_memo]) is engine-agnostic: one memo
   slot per box (holding the result as a relation, a column batch, or
   lazily both), deadline checks and row metering at operator boundaries,
   per-operator metrics. *)

exception Exec_error of string

module V = Data.Value
module R = Data.Relation
module B = Qgm.Box
module G = Qgm.Graph
module C = Column

(* ------------------------------------------------------------------ *)
(* Engine selection                                                    *)
(* ------------------------------------------------------------------ *)

type engine = Vector | Reference

(* [ASTQL_EXEC=reference] runs the whole process on the oracle; anything
   else runs the vectorized engine rather than failing startup: the knob
   is a test switch, not a correctness switch *)
let current_engine =
  Atomic.make
    (match Sys.getenv_opt "ASTQL_EXEC" with
    | Some s when List.mem (String.lowercase_ascii (String.trim s)) [ "reference"; "ref" ]
      ->
        Reference
    | _ -> Vector)

let with_engine e f =
  let saved = Atomic.get current_engine in
  Atomic.set current_engine e;
  Fun.protect ~finally:(fun () -> Atomic.set current_engine saved) f

(* ------------------------------------------------------------------ *)
(* Memoized recursion over boxes                                       *)
(* ------------------------------------------------------------------ *)

(* A memo slot holds a box's result in whichever representation the engine
   produced (batches for [Vector], relations for [Reference]), converting
   and caching the conversion on demand. *)
type slot = { mutable srel : R.t option; mutable sbat : C.batch option }

let slot_of_rel r = { srel = Some r; sbat = None }
let slot_of_batch b = { srel = None; sbat = Some b }

let slot_rel s =
  match s.srel with
  | Some r -> r
  | None ->
      let r = C.to_relation (Option.get s.sbat) in
      s.srel <- Some r;
      r

let slot_batch s =
  match s.sbat with
  | Some b -> b
  | None ->
      let b = C.of_relation (Option.get s.srel) in
      s.sbat <- Some b;
      b

let slot_cardinality s =
  match s.sbat with
  | Some b -> b.C.nrows
  | None -> R.cardinality (Option.get s.srel)

(* Operator-level metrics, ticked only on the compute path (memo hits are
   free and counted separately). Timings are wall-clock and include the
   recursive children, so the per-operator histograms report inclusive
   operator latency. *)
let x_boxes = Obs.Metrics.counter "exec.boxes"
let x_memo_hits = Obs.Metrics.counter "exec.memo_hits"
let x_rows = Obs.Metrics.counter "exec.rows"
let x_base_ms = Obs.Metrics.histogram "exec.base_ms"
let x_select_ms = Obs.Metrics.histogram "exec.select_ms"
let x_group_ms = Obs.Metrics.histogram "exec.group_ms"
let x_union_ms = Obs.Metrics.histogram "exec.union_ms"
let x_runs = Obs.Metrics.counter "exec.runs"
let x_run_ms = Obs.Metrics.histogram "exec.run_ms"

(* Vectorized operators report internal invariant violations through their
   own exception; surface them as executor errors. Reference operators
   likewise, so [ASTQL_EXEC=reference] behaves as a drop-in engine. *)
let vex f = try slot_of_batch (f ()) with Vexec.Error m -> raise (Exec_error m)

let refx f =
  try slot_of_rel (f ()) with Reference.Reference_error m -> raise (Exec_error m)

let rec run_box_memo ?budget db g memo id : slot =
  match Hashtbl.find_opt memo id with
  | Some s ->
      Obs.Metrics.incr x_memo_hits;
      s
  | None ->
      (* operator boundary: the cheapest place to notice a blown deadline
         before starting (possibly expensive) work on this box *)
      Govern.Budget.check_deadline budget;
      Obs.Metrics.incr x_boxes;
      let child_rel q = slot_rel (run_box_memo ?budget db g memo q.B.q_box) in
      let child_batch q = slot_batch (run_box_memo ?budget db g memo q.B.q_box) in
      let body = (G.box g id).B.body in
      let hist =
        match body with
        | B.Base _ -> x_base_ms
        | B.Select _ -> x_select_ms
        | B.Group _ -> x_group_ms
        | B.Union _ -> x_union_ms
      in
      let s =
        Obs.Metrics.time hist @@ fun () ->
        match (Atomic.get current_engine, body) with
        | Vector, B.Base bt -> vex (fun () -> Vexec.exec_base db bt)
        | Vector, B.Select sel -> vex (fun () -> Vexec.exec_select ~child:child_batch sel)
        | Vector, B.Group grp -> vex (fun () -> Vexec.exec_group ~child:child_batch grp)
        | Vector, B.Union u -> vex (fun () -> Vexec.exec_union ~child:child_batch u)
        | Reference, B.Base { bt_table; bt_cols } ->
            slot_of_rel (R.project (Db.get_exn db bt_table) bt_cols)
        | Reference, B.Select sel ->
            refx (fun () -> Reference.eval_select ~child:child_rel sel)
        | Reference, B.Group grp ->
            refx (fun () -> Reference.eval_group ~child:child_rel grp)
        | Reference, B.Union u -> refx (fun () -> Reference.eval_union ~child:child_rel u)
      in
      Obs.Metrics.add x_rows (slot_cardinality s);
      Govern.Budget.tick_rows budget (slot_cardinality s);
      Hashtbl.add memo id s;
      s

(* ------------------------------------------------------------------ *)

let run_box ?budget db g id =
  (* arm the scratch arena for this run: every kernel buffer allocated
     below dies when the memo does, so the outermost bracket recycles the
     chunks wholesale (results are boxed relations by then) *)
  C.scratch_begin ();
  Fun.protect ~finally:C.scratch_end @@ fun () ->
  slot_rel (run_box_memo ?budget db g (Hashtbl.create 16) id)

let run ?budget db g =
  Obs.Metrics.incr x_runs;
  Obs.Metrics.time x_run_ms @@ fun () ->
  let rel = run_box ?budget db g (G.root g) in
  let { G.order_by; limit } = G.presentation g in
  let rel =
    if order_by = [] then rel
    else
      let idx = List.map (fun (c, asc) -> (R.column_index rel c, asc)) order_by in
      R.sort
        (fun a b ->
          let rec go = function
            | [] -> 0
            | (i, asc) :: rest ->
                let c = V.compare a.(i) b.(i) in
                if c <> 0 then if asc then c else -c else go rest
          in
          go idx)
        rel
  in
  match limit with
  | None -> rel
  | Some n ->
      let rows = R.rows rel in
      let rec take k = function
        | [] -> []
        | _ when k = 0 -> []
        | x :: rest -> x :: take (k - 1) rest
      in
      R.create (Array.to_list (R.columns rel)) (take n rows)
