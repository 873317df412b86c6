(* The deferred-maintenance queue: self-healing for stale summary tables.

   Staleness is observed by Store.apply_insert/apply_delete; the session
   enqueues the names here and drains the queue opportunistically at
   statement boundaries, under a maintenance budget. Time is counted in
   drain ticks (statement boundaries), not wall-clock, so backoff behaves
   identically under test and under load.

   A task's life: due -> refresh attempt ->
     - success: dequeued (the table is fresh and rewritable again);
     - budget exhausted: deferred one tick, no penalty (not a failure);
     - refresh error (via Guard.Error): attempt counted, next try delayed
       by backoff_base * 2^(attempts-1) ticks; after max_retries failed
       attempts the table is quarantined — taken off the queue and left
       stale until a manual REFRESH or DROP clears it. *)

type task = {
  mt_mv : string;
  mutable mt_attempts : int;    (* failed refresh attempts so far *)
  mutable mt_not_before : int;  (* earliest drain tick for the next try *)
}

type quarantined = { mq_mv : string; mq_error : Guard.Error.t }

type t = {
  max_retries : int;
  backoff_base : int;
  mutable tasks : task list;           (* FIFO within the same due tick *)
  mutable held : quarantined list;
  mutable tick : int;
}

let create ?(max_retries = 3) ?(backoff_base = 2) () =
  if max_retries < 1 then invalid_arg "Maint.create: max_retries < 1";
  if backoff_base < 1 then invalid_arg "Maint.create: backoff_base < 1";
  {
    max_retries;
    backoff_base;
    tasks = [];
    held = [];
    tick = 0;
  }

let norm = String.lowercase_ascii
let same a b = norm a = norm b

let is_queued t name = List.exists (fun k -> same k.mt_mv name) t.tasks
let is_quarantined t name = List.exists (fun q -> same q.mq_mv name) t.held
let depth t = List.length t.tasks
let quarantined t = t.held
let tasks t = t.tasks

let enqueue t name =
  if not (is_queued t name || is_quarantined t name) then
    t.tasks <-
      t.tasks @ [ { mt_mv = name; mt_attempts = 0; mt_not_before = t.tick } ]

(* DROP or manual REFRESH: the table no longer needs (or can receive)
   auto-maintenance, and a quarantine hold is void. *)
let remove t name =
  t.tasks <- List.filter (fun k -> not (same k.mt_mv name)) t.tasks;
  t.held <- List.filter (fun q -> not (same q.mq_mv name)) t.held

let tick t = t.tick <- t.tick + 1

let due t =
  List.filter_map
    (fun k -> if k.mt_not_before <= t.tick then Some k.mt_mv else None)
    t.tasks

let find_task t name = List.find_opt (fun k -> same k.mt_mv name) t.tasks

(* Lifetime counts live in the metrics registry, ticked where the events
   happen. *)
let m_auto_refreshes = Obs.Metrics.counter "govern.maint.auto_refreshes"
let m_refresh_failures = Obs.Metrics.counter "govern.maint.refresh_failures"
let m_quarantined = Obs.Metrics.counter "govern.maint.quarantined"

let record_success t name =
  Obs.Metrics.incr m_auto_refreshes;
  t.tasks <- List.filter (fun k -> not (same k.mt_mv name)) t.tasks

let defer t name =
  match find_task t name with
  | None -> ()
  | Some k -> k.mt_not_before <- t.tick + 1

let record_failure t name error =
  match find_task t name with
  | None -> ()
  | Some k ->
      Obs.Metrics.incr m_refresh_failures;
      k.mt_attempts <- k.mt_attempts + 1;
      if k.mt_attempts >= t.max_retries then begin
        Obs.Metrics.incr m_quarantined;
        t.tasks <- List.filter (fun k' -> not (same k'.mt_mv name)) t.tasks;
        t.held <- t.held @ [ { mq_mv = k.mt_mv; mq_error = error } ]
      end
      else
        (* exponential backoff: 1 failure -> base ticks, 2 -> 2*base, ... *)
        k.mt_not_before <-
          t.tick + (t.backoff_base * (1 lsl (k.mt_attempts - 1)))

let describe t =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf
       "maintenance: %d queued, %d quarantined, %d auto-refreshed, %d failed \
        attempt(s)"
       (depth t) (List.length t.held)
       (Obs.Metrics.counter_value m_auto_refreshes)
       (Obs.Metrics.counter_value m_refresh_failures));
  List.iter
    (fun k ->
      Buffer.add_string b
        (Printf.sprintf "\n  queued %s: %d attempt(s), next at tick %d (now %d)"
           k.mt_mv k.mt_attempts k.mt_not_before t.tick))
    t.tasks;
  List.iter
    (fun q ->
      Buffer.add_string b
        (Printf.sprintf "\n  quarantined %s: %s" q.mq_mv
           (Guard.Error.to_string q.mq_error)))
    t.held;
  Buffer.contents b
