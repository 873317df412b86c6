(* In-memory span recorder for the traced replay. A span is one call into a
   layer's public function: request id, name, parent, start and end on the
   monotonic clock. Spans of one request share its id; probes made outside
   any request have request id -1. Nothing is written until [write]. *)

type span = {
  sp_id : int;
  sp_rid : int;
  sp_name : string;
  sp_parent : int;  (** -1 for a root *)
  sp_start : int64;
  sp_end : int64;
}

type t = { mutable spans : span list; mutable next : int; origin : int64 }

let create () = { spans = []; next = 0; origin = Harness.now_ns () }

let record t ~rid ~parent name f =
  let id = t.next in
  t.next <- id + 1;
  let t0 = Harness.now_ns () in
  let r = f id in
  let t1 = Harness.now_ns () in
  t.spans <-
    { sp_id = id; sp_rid = rid; sp_name = name; sp_parent = parent;
      sp_start = t0; sp_end = t1 }
    :: t.spans;
  r

(* A request's root span; [f] receives the id its children hang from. *)
let root t ~rid f = record t ~rid ~parent:(-1) "request" f
let child t ~rid ~parent name f = record t ~rid ~parent name (fun _ -> f ())
let probe t name f = record t ~rid:(-1) ~parent:(-1) name (fun _ -> f ())
let spans t = List.rev t.spans
let duration_ns s = Int64.sub s.sp_end s.sp_start

(* The layer a span belongs to: its name up to the first dot. *)
let layer s =
  match String.index_opt s.sp_name '.' with
  | Some i -> String.sub s.sp_name 0 i
  | None -> s.sp_name

(* Self time: the span's duration minus the part of it its children cover
   (children may in principle overlap, so covered time is their union). *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.sp_parent >= 0 then Hashtbl.add children s.sp_parent (s.sp_start, s.sp_end))
    spans;
  List.map
    (fun s ->
      let kids =
        List.sort compare (Hashtbl.find_all children s.sp_id)
      in
      let covered, _ =
        List.fold_left
          (fun (acc, upto) (a, b) ->
            let a = max a upto in
            if b > a then (Int64.add acc (Int64.sub b a), b) else (acc, upto))
          (0L, s.sp_start) kids
      in
      (s, Int64.sub (duration_ns s) covered))
    spans

(* Durations in microseconds of the spans named [name], either inside
   request trees ([~requests:true]) or in probes. *)
let durations_us ~requests spans name =
  Array.of_list
    (List.filter_map
       (fun s ->
         if s.sp_name = name && (s.sp_rid >= 0) = requests then
           Some (Int64.to_float (duration_ns s) /. 1e3)
         else None)
       spans)

(* Each layer's share of in-process request time (the sum of root
   durations), from self times of the spans inside request trees; the
   roots' own self time is reported as "unattributed". *)
let layer_shares spans =
  let total =
    List.fold_left
      (fun acc s ->
        if s.sp_parent < 0 && s.sp_rid >= 0 then Int64.add acc (duration_ns s)
        else acc)
      0L spans
  in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      if s.sp_rid >= 0 then begin
        let key = if s.sp_parent < 0 then "unattributed" else layer s in
        let prev = Option.value ~default:0L (Hashtbl.find_opt tbl key) in
        Hashtbl.replace tbl key (Int64.add prev self)
      end)
    (self_times spans);
  let total = Int64.to_float total in
  Hashtbl.fold
    (fun k v acc -> (k, if total > 0. then Int64.to_float v /. total else 0.) :: acc)
    tbl []
  |> List.sort compare

let write t path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"rid\": %d, \"id\": %d, \"name\": %S, \"parent\": %d, \
             \"start_ns\": %Ld, \"end_ns\": %Ld}\n"
            s.sp_rid s.sp_id s.sp_name s.sp_parent
            (Int64.sub s.sp_start t.origin)
            (Int64.sub s.sp_end t.origin))
        (spans t))
