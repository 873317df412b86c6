(* QGM executor.

   Every box runs on the vectorized engine ({!Vexec}). The recursion
   ([run_box_memo]) keeps one memo entry per box holding its column batch,
   checks the deadline and meters rows at operator boundaries, and times
   each operator. *)

exception Exec_error of string

module V = Data.Value
module R = Data.Relation
module B = Qgm.Box
module G = Qgm.Graph
module C = Column

(* ------------------------------------------------------------------ *)
(* Memoized recursion over boxes                                       *)
(* ------------------------------------------------------------------ *)

(* Operator-level metrics, ticked only on the compute path (memo hits are
   free and counted separately). Timings are wall-clock and exclude the
   children an operator computes: each box observes its own time, so
   the per-operator histograms of one run add up to at most its
   [exec.run_ms]. *)
let x_boxes = Obs.Metrics.counter "exec.boxes"
let x_memo_hits = Obs.Metrics.counter "exec.memo_hits"
let x_rows = Obs.Metrics.counter "exec.rows"
let x_base_ms = Obs.Metrics.histogram "exec.base_ms"
let x_select_ms = Obs.Metrics.histogram "exec.select_ms"
let x_group_ms = Obs.Metrics.histogram "exec.group_ms"
let x_union_ms = Obs.Metrics.histogram "exec.union_ms"
let x_runs = Obs.Metrics.counter "exec.runs"
let x_run_ms = Obs.Metrics.histogram "exec.run_ms"

let rec run_box_memo ?budget db g memo id : C.batch =
  match Hashtbl.find_opt memo id with
  | Some b ->
      Obs.Metrics.incr x_memo_hits;
      b
  | None ->
      (* operator boundary: the cheapest place to notice a blown deadline
         before starting (possibly expensive) work on this box *)
      Govern.Budget.check_deadline budget;
      Obs.Metrics.incr x_boxes;
      let t0 = Obs.Metrics.now_ms () and children_ms = ref 0. in
      let child q =
        let c0 = Obs.Metrics.now_ms () in
        let b = run_box_memo ?budget db g memo q.B.q_box in
        children_ms := !children_ms +. (Obs.Metrics.now_ms () -. c0);
        b
      in
      let body = (G.box g id).B.body in
      let hist =
        match body with
        | B.Base _ -> x_base_ms
        | B.Select _ -> x_select_ms
        | B.Group _ -> x_group_ms
        | B.Union _ -> x_union_ms
      in
      let b =
        Fun.protect
          ~finally:(fun () ->
            Obs.Metrics.observe hist (Obs.Metrics.now_ms () -. t0 -. !children_ms))
        @@ fun () ->
        (* operators report internal invariant violations through their own
           exception; surface them as executor errors *)
        try
          match body with
          | B.Base bt -> Vexec.exec_base db bt
          | B.Select sel -> Vexec.exec_select ~child sel
          | B.Group grp -> Vexec.exec_group ~child grp
          | B.Union u -> Vexec.exec_union ~child u
        with Vexec.Error m -> raise (Exec_error m)
      in
      Obs.Metrics.add x_rows b.C.nrows;
      Govern.Budget.tick_rows budget b.C.nrows;
      Hashtbl.add memo id b;
      b

(* ------------------------------------------------------------------ *)

(* The root's presentation as row positions: ORDER BY's stable sort, then
   LIMIT's prefix. [value c i] reads column [c] of row [i]. *)
let presented g ~n ~column_index ~value =
  let { G.order_by; limit } = G.presentation g in
  let idx = Array.init n Fun.id in
  if order_by <> [] then begin
    let keys = List.map (fun (c, asc) -> (column_index c, asc)) order_by in
    Array.stable_sort
      (fun a b ->
        let rec go = function
          | [] -> 0
          | (c, asc) :: rest ->
              let cmp = V.compare (value c a) (value c b) in
              if cmp <> 0 then if asc then cmp else -cmp else go rest
        in
        go keys)
      idx
  end;
  match limit with Some k when k >= 0 && k < n -> Array.sub idx 0 k | _ -> idx

let has_presentation g =
  let { G.order_by; limit } = G.presentation g in
  order_by <> [] || limit <> None

let timed_run f =
  Obs.Metrics.incr x_runs;
  Obs.Metrics.time x_run_ms f

let run ?budget db g =
  timed_run @@ fun () ->
  (* the run's kernel buffers come from the scratch arena and die with
     the memo; the result is boxed before the arena recycles them *)
  let rel =
    C.scratch_begin ();
    Fun.protect ~finally:C.scratch_end @@ fun () ->
    C.to_relation (run_box_memo ?budget db g (Hashtbl.create 16) (G.root g))
  in
  if not (has_presentation g) then rel
  else
    let rows = R.rows_array rel in
    let idx =
      presented g ~n:(Array.length rows) ~column_index:(R.column_index rel)
        ~value:(fun c i -> rows.(i).(c))
    in
    R.create
      (Array.to_list (R.columns rel))
      (Array.to_list (Array.map (fun i -> rows.(i)) idx))

let run_batch ?budget db g =
  timed_run @@ fun () ->
  C.scratch_begin ();
  Fun.protect ~finally:C.scratch_end @@ fun () ->
  let b = run_box_memo ?budget db g (Hashtbl.create 16) (G.root g) in
  let b =
    if not (has_presentation g) then b
    else
      let idx =
        presented g ~n:b.C.nrows ~column_index:(Vexec.batch_col_index b)
          ~value:(fun c i -> C.get b.C.cols.(c) i)
      in
      let k = Array.length idx in
      let sel = C.scratch_ints k in
      Array.iteri (Bigarray.Array1.set sel) idx;
      { b with C.cols = Array.map (fun c -> C.gather c sel k) b.C.cols; nrows = k }
  in
  (* copied out while the arena is still armed: nothing stored may point
     into a chunk the next run reuses *)
  C.persist b
