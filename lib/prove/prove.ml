(* Static predicate prover: abstract interpretation over canonicalized QGM
   predicates.

   A conjunction of predicates is abstracted into a {!state}: per-key
   abstract values from {!Domain} (keys are *normalized sub-expressions* —
   a bare column, or a scalar computation like [year(d)] — so computed
   restrictions participate too) plus the residual conjuncts the domain
   cannot represent.  The state over-approximates the satisfying rows;
   every verdict is therefore one-sided:

     [Proved]    — the property holds for every database instance;
     [Unknown _] — nothing is claimed, callers keep today's behavior.

   Equivalence-class propagation happens at the call sites: the matcher
   canonicalizes predicates through [Equiv.canon] before asking, so two
   spellings of the same column land on one key.

   Exactness: the abstraction of a *single* predicate is exact for
   comparison/equality/IS NULL atoms and same-key conjunctions of them,
   but an OR of intervals collapses to a convex hull (over-approximation).
   Entailment and coverage require the needed side to be exact; the
   [pred_abs] classifier tracks that bit.  Disjointness and
   unsatisfiability only need over-approximation. *)

module E = Qgm.Expr
module G = Qgm.Graph
module Bx = Qgm.Box
module V = Data.Value

module Domain = Domain

type status = Proved | Unknown of string

let is_proved = function Proved -> true | Unknown _ -> false

(* First failure wins, so a combined certificate names its first hole. *)
let both a b = match a with Proved -> b | Unknown _ -> a
let all_proved l = List.fold_left both Proved l

(* ---------------- metrics ---------------- *)

let m_attempts = Obs.Metrics.counter "prove.attempts"
let m_proved = Obs.Metrics.counter "prove.proved"
let m_unknown = Obs.Metrics.counter "prove.unknown"
let m_ms = Obs.Metrics.histogram "prove.ms"

let record f =
  Obs.Metrics.incr m_attempts;
  let r = Obs.Metrics.time m_ms f in
  (match r with
  | Proved -> Obs.Metrics.incr m_proved
  | Unknown _ -> Obs.Metrics.incr m_unknown);
  r

(* Cooperative with planning budgets: proving is optional work, so when
   the statement deadline is already spent we answer [Unknown] instead of
   starting an analysis (and never raise). *)
let unless_deadline budget f =
  if Govern.Budget.deadline_spent budget then Unknown "planning deadline spent"
  else f ()

(* ---------------- type oracles ---------------- *)

(* Lift a column-type oracle to key expressions: scalar functions with a
   statically known result type keep their argument keys typed, which is
   what lets [year(d) > 1999] normalize like an INT bound. *)
let rec key_ty ~col e =
  match e with
  | E.Col c -> col c
  | E.Fncall (("year" | "month" | "day" | "length" | "mod"), _) -> Some V.Tint
  | E.Fncall ("float", _) -> Some V.Tfloat
  | E.Fncall (("upper" | "lower"), _) -> Some V.Tstr
  | E.Unop ("-", x) -> key_ty ~col x
  | _ -> None

let no_ty _ = None

(* ---------------- predicate classification ---------------- *)

let rec split_and e =
  match e with E.Binop ("AND", a, b) -> split_and a @ split_and b | _ -> [ e ]

let rec split_or e =
  match e with E.Binop ("OR", a, b) -> split_or a @ split_or b | _ -> [ e ]

let is_const = function E.Const _ -> true | _ -> false

(* Abstraction of one (normalized) predicate: constant truth value, or a
   single-key abstract value with an exactness flag. *)
type 'k pred_abs =
  | P_true
  | P_false
  | P_key of 'k E.t * Domain.t * bool (* exact? *)

let is_enum_or_empty a =
  match a.Domain.a_shape with Domain.Enum _ -> true | Domain.Range _ -> false

let combine_and parts =
  if List.exists (( = ) (Some P_false)) parts then Some P_false
  else if List.exists (( = ) None) parts then None
  else
    let keyed = List.filter (( <> ) (Some P_true)) parts in
    match keyed with
    | [] -> Some P_true
    | Some (P_key (k0, _, _)) :: _ ->
        if
          List.for_all
            (function Some (P_key (k, _, _)) -> k = k0 | _ -> false)
            keyed
        then
          let abs, exact =
            List.fold_left
              (fun (a, e) p ->
                match p with
                | Some (P_key (_, b, eb)) -> (Domain.meet a b, e && eb)
                | _ -> (a, e))
              (Domain.top, true) keyed
          in
          Some (P_key (k0, abs, exact))
        else None
    | _ -> None

let combine_or parts =
  if List.exists (( = ) (Some P_true)) parts then Some P_true
  else if List.exists (( = ) None) parts then None
  else
    let keyed = List.filter (( <> ) (Some P_false)) parts in
    match keyed with
    | [] -> Some P_false
    | Some (P_key (k0, _, _)) :: _ ->
        if
          List.for_all
            (function Some (P_key (k, _, _)) -> k = k0 | _ -> false)
            keyed
        then
          let abs, exact =
            List.fold_left
              (fun acc p ->
                match (acc, p) with
                | None, Some (P_key (_, b, eb)) -> Some (b, eb)
                | Some (a, e), Some (P_key (_, b, eb)) ->
                    (* set union is exact only between finite shapes *)
                    let exact =
                      e && eb && is_enum_or_empty a && is_enum_or_empty b
                    in
                    Some (Domain.join a b, exact)
                | acc, _ -> acc)
              None keyed
            |> Option.get
          in
          Some (P_key (k0, abs, exact))
        else None
    | _ -> None

(* [e] must already be normalized. *)
let rec pred_abs ty e =
  match e with
  | E.Const (V.Bool true) -> Some P_true
  | E.Const (V.Bool false) | E.Const V.Null -> Some P_false
  | E.Is_null (k, true) when not (is_const k) -> Some (P_key (k, Domain.null_only, true))
  | E.Is_null (k, false) when not (is_const k) -> Some (P_key (k, Domain.not_null, true))
  | E.Binop ((("<" | "<=") as op), a, b) -> (
      let kind = if op = "<" then Domain.Open else Domain.Closed in
      match (a, b) with
      | E.Const V.Null, _ | _, E.Const V.Null -> Some P_false
      | E.Const c, k when not (is_const k) ->
          Some (P_key (k, Domain.of_range ?ty:(ty k) (Domain.B (c, kind)) Domain.Pos_inf, true))
      | k, E.Const c when not (is_const k) ->
          Some (P_key (k, Domain.of_range ?ty:(ty k) Domain.Neg_inf (Domain.B (c, kind)), true))
      | _ -> None)
  | E.Binop ("=", a, b) -> (
      match (a, b) with
      | E.Const V.Null, _ | _, E.Const V.Null -> Some P_false
      | E.Const c, k when not (is_const k) -> Some (P_key (k, Domain.of_enum [ c ], true))
      | k, E.Const c when not (is_const k) -> Some (P_key (k, Domain.of_enum [ c ], true))
      | _ -> None)
  | E.Binop ("<>", a, b) -> (
      match (a, b) with
      | E.Const V.Null, _ | _, E.Const V.Null -> Some P_false
      | E.Const c, k when not (is_const k) -> Some (P_key (k, Domain.excluding c, true))
      | k, E.Const c when not (is_const k) -> Some (P_key (k, Domain.excluding c, true))
      | _ -> None)
  | E.Binop ("AND", _, _) -> combine_and (List.map (pred_abs ty) (split_and e))
  | E.Binop ("OR", _, _) -> combine_or (List.map (pred_abs ty) (split_or e))
  | _ -> None

(* ---------------- conjunction states ---------------- *)

type 'k state = {
  st_abs : ('k E.t * Domain.t) list; (* key -> met abstract value *)
  st_conjuncts : 'k E.t list;        (* all normalized conjuncts (syntactic) *)
  st_false : bool;                   (* the conjunction can never be TRUE *)
}

let state_of ~ty preds =
  let conjs = List.concat_map (fun p -> split_and (E.normalize p)) preds in
  List.fold_left
    (fun st c ->
      if st.st_false then st
      else
        match pred_abs ty c with
        | Some P_false -> { st with st_false = true }
        | Some P_true -> st
        | Some (P_key (k, a, _)) ->
            (* exactness is irrelevant here: the state only needs to
               over-approximate, and every [pred_abs] result does *)
            let merged =
              match List.assoc_opt k st.st_abs with
              | Some b -> Domain.meet a b
              | None -> a
            in
            { st with st_abs = (k, merged) :: List.remove_assoc k st.st_abs }
        | None -> st)
    { st_abs = []; st_conjuncts = conjs; st_false = false }
    conjs

let state_unsat st =
  st.st_false || List.exists (fun (_, a) -> Domain.is_empty a) st.st_abs

(* Does every row satisfying the state's conjunction satisfy [e]?
   Syntactic membership covers residual conjuncts (join predicates etc.);
   the abstract check covers range reasoning.  The needed side must be
   exact — entailing into an over-approximation would be unsound. *)
let entails ~ty st e =
  state_unsat st
  ||
  let rec ent e =
    List.mem e st.st_conjuncts
    ||
    match pred_abs ty e with
    | Some P_true -> true
    | Some P_false -> false
    | Some (P_key (k, need, exact)) -> (
        exact
        &&
        match List.assoc_opt k st.st_abs with
        | Some have -> Domain.le have need
        | None -> false)
    | None -> (
        match e with
        | E.Binop ("AND", _, _) -> List.for_all ent (split_and e)
        | E.Binop ("OR", _, _) -> List.exists ent (split_or e)
        | _ -> false)
  in
  ent (E.normalize e)

(* ---------------- verdicts ---------------- *)

(* Rows kept by [strong] are all kept by [weak] (both implicit
   conjunctions).  Trivially proved when [strong] is unsatisfiable. *)
let subsumed ~ty ~weak ~strong =
  record (fun () ->
      let st = state_of ~ty strong in
      if state_unsat st then Proved
      else
        let ws = List.concat_map (fun p -> split_and (E.normalize p)) weak in
        match List.find_opt (fun w -> not (entails ~ty st w)) ws with
        | None -> Proved
        | Some _ ->
            Unknown "a weaker-side predicate is not entailed by the stronger side")

let unsat ~ty preds =
  record (fun () ->
      if state_unsat (state_of ~ty preds) then Proved
      else Unknown "not provably unsatisfiable")

(* Internal: a shared key whose abstract values cannot intersect. *)
let disjoint_witness sa sb =
  List.find_opt
    (fun (k, va) ->
      match List.assoc_opt k sb.st_abs with
      | Some vb -> Domain.disjoint va vb
      | None -> false)
    sa.st_abs

let disjoint ~ty a b =
  record (fun () ->
      let sa = state_of ~ty a and sb = state_of ~ty b in
      if state_unsat sa || state_unsat sb then Proved
      else
        match disjoint_witness sa sb with
        | Some _ -> Proved
        | None -> Unknown "no shared column with provably disjoint ranges")

(* Reduce a conjunct list to a single-key abstract value (if possible). *)
let conj_abs ty conjs = combine_and (List.map (pred_abs ty) conjs)

(* ---------------- graph-level certificates ---------------- *)

(* Chase a box output column down to its base ["table.column"] through
   SELECT passthrough outputs and GROUP BY keys; [None] for computed
   outputs (the predicate then counts as opaque). *)
let rec chase_col g box_id col =
  match (G.box g box_id).Bx.body with
  | Bx.Base b ->
      if List.mem col b.Bx.bt_cols then Some (b.Bx.bt_table ^ "." ^ col)
      else None
  | Bx.Select s -> (
      match List.assoc_opt col s.Bx.sel_outs with
      | Some (E.Col { Bx.quant; col = c }) -> (
          match List.find_opt (fun q -> q.Bx.q_id = quant) s.Bx.sel_quants with
          | Some q -> chase_col g q.Bx.q_box c
          | None -> None)
      | _ -> None)
  | Bx.Group gb ->
      if List.mem col (Bx.grouping_union gb.Bx.grp_grouping) then chase_col g gb.Bx.grp_quant.Bx.q_box col
      else None
  | Bx.Union _ -> None

(* All SELECT predicates of the reachable graph mapped into base-column
   space, plus a count of opaque (unmappable) predicates. *)
let restrictions g =
  let root = G.root g in
  List.fold_left
    (fun (preds, opaque) id ->
      match (G.box g id).Bx.body with
      | Bx.Select s ->
          List.fold_left
            (fun (preds, opaque) p ->
              let resolve { Bx.quant; col } =
                match
                  List.find_opt (fun q -> q.Bx.q_id = quant) s.Bx.sel_quants
                with
                | Some q ->
                    Option.map (fun c -> E.Col c) (chase_col g q.Bx.q_box col)
                | None -> None
              in
              match E.subst_col resolve p with
              | Some p' -> (E.normalize p' :: preds, opaque)
              | None -> (preds, opaque + 1))
            (preds, opaque) s.Bx.sel_preds
      | _ -> (preds, opaque))
    ([], 0)
    (G.reachable g root)

let footprint g =
  List.sort compare
    (List.filter_map
       (fun id ->
         match (G.box g id).Bx.body with
         | Bx.Base b -> Some b.Bx.bt_table
         | _ -> None)
       (G.reachable g (G.root g)))

let base_col_ty cat key =
  match String.index_opt key '.' with
  | Some i ->
      let t = String.sub key 0 i
      and c = String.sub key (i + 1) (String.length key - i - 1) in
      Option.bind (Catalog.find_table cat t) (fun tbl ->
          Option.map
            (fun col -> col.Catalog.col_ty)
            (Catalog.find_column tbl c))
  | None -> None

let base_col_nullable cat key =
  match String.index_opt key '.' with
  | Some i ->
      let t = String.sub key 0 i
      and c = String.sub key (i + 1) (String.length key - i - 1) in
      Catalog.column_nullable cat t c
  | None -> true

type pair_cert = { pc_status : status; pc_column : string option }

let key_column k =
  match List.sort_uniq compare (E.cols k) with [ c ] -> Some c | _ -> None

(* The restriction regions of two query graphs provably share no row.
   Opaque predicates only shrink a region, so they do not endanger a
   disjointness proof. *)
let disjoint_graphs ~cat ga gb =
  let result = ref None in
  let status =
    record (fun () ->
        let pa, _ = restrictions ga and pb, _ = restrictions gb in
        let ty = key_ty ~col:(base_col_ty cat) in
        let sa = state_of ~ty pa and sb = state_of ~ty pb in
        if state_unsat sa || state_unsat sb then Proved
        else
          match disjoint_witness sa sb with
          | Some (k, _) ->
              result := key_column k;
              Proved
          | None -> Unknown "no shared column with provably disjoint ranges")
  in
  { pc_status = status; pc_column = !result }

(* Certify an AST pair as disjoint-and-covering over one base column's
   range: same base-table footprint, no opaque predicates, identical
   conjuncts except for a residual pair reducing to one shared key whose
   abstract values are disjoint and jointly cover the whole column domain
   (including NULL when the catalog says the column is nullable).  This is
   the enabling primitive for UNION ALL multi-view rewrites (ROADMAP item
   3): a query spanning both shards can be answered by the union. *)
let partition ~cat ga gb =
  let result = ref None in
  let status =
    record (fun () ->
        if footprint ga <> footprint gb then
          Unknown "different base-table footprints"
        else
          let pa, oa = restrictions ga and pb, ob = restrictions gb in
          if oa > 0 || ob > 0 then
            Unknown "a predicate does not map to base columns"
          else
            let ty = key_ty ~col:(base_col_ty cat) in
            let ra = List.filter (fun c -> not (List.mem c pb)) pa
            and rb = List.filter (fun c -> not (List.mem c pa)) pb in
            if ra = [] || rb = [] then
              Unknown "one side carries no residual restriction"
            else
              match (conj_abs ty ra, conj_abs ty rb) with
              | Some (P_key (ka, aa, ea)), Some (P_key (kb, ab, eb))
                when ka = kb ->
                  result := key_column ka;
                  if not (Domain.disjoint aa ab) then
                    Unknown "ranges are not provably disjoint"
                  else
                    let nullable =
                      match key_column ka with
                      | Some c -> base_col_nullable cat c
                      | None -> true
                    in
                    if
                      ea && eb
                      && Domain.covers_all ?ty:(ty ka) ~nullable aa ab
                    then Proved
                    else
                      Unknown
                        "ranges are disjoint but do not provably cover the domain"
              | _ ->
                  Unknown "residual predicates do not reduce to one shared column")
  in
  { pc_status = status; pc_column = !result }
