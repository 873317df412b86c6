(* Vectorized (batch-at-a-time) QGM operators over typed column vectors.

   Execution here is column-at-a-time over whole-relation batches: scan
   decodes a base table once (through Column's LRU cache), filter evaluates
   predicates as vector kernels producing selection indices, joins build
   hash tables on key columns and gather matching rows, and aggregation
   assigns dense group ids in one pass then folds each aggregate in a tight
   typed loop. The few shapes without a typed kernel run here too, on
   boxed values: CASE evaluates per row through Eval, DISTINCT aggregates
   mask repeated (group, value) pairs to NULL before the ordinary fold,
   and UNION concatenates its branches column by column.

   Semantics notes (checked against the Reference oracle by the
   differential fuzz in test/test_differential.ml):
   - AND/OR evaluate their right operand only on rows where the left side
     does not decide (left <> FALSE for AND, <> TRUE for OR), and CASE
     evaluates an arm only on rows its WHEN selects, so data-dependent
     errors (division by zero) surface exactly as in scalar evaluation.
   - Join and group hash keys honor SQL grouping equality: NULL groups
     with NULL, Int and Float compare numerically.
   - Operator output row order is deterministic (left-major joins,
     first-seen group order), so ORDER BY ties break the same way on
     every run.
   - Boxed fallback kernels route through Eval's scalar kernels, so error
     messages and 3VL corner cases cannot drift from the scalar
     semantics. *)

module V = Data.Value
module R = Data.Relation
module E = Qgm.Expr
module B = Qgm.Box
module C = Column
module BA1 = Bigarray.Array1

exception Error of string

let err fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let x_batch_rows = Obs.Metrics.counter "exec.batch_rows"

(* ------------------------------------------------------------------ *)
(* Shared hashing on boxed values (SQL grouping equality)              *)
(* ------------------------------------------------------------------ *)

module Vkey = struct
  type t = V.t list

  let equal a b = List.length a = List.length b && List.for_all2 V.equal a b
  let hash k = List.fold_left (fun h v -> (h * 31) + V.hash v) 17 k
end

module VH = Hashtbl.Make (Vkey)

(* ------------------------------------------------------------------ *)
(* Growable int buffer (join outputs, selections)                      *)
(* ------------------------------------------------------------------ *)

(* Backed by a Bigarray, like column data: index buffers reach millions of
   entries, and keeping them off the OCaml heap keeps the GC out of the
   executor's inner loops. *)
type ibuf = { mutable ib_arr : C.ints; mutable ib_len : int }

let ibuf_create n = { ib_arr = C.scratch_ints (max 16 n); ib_len = 0 }

let ibuf_push b x =
  if b.ib_len = BA1.dim b.ib_arr then begin
    let bigger = C.scratch_ints (2 * b.ib_len) in
    BA1.blit b.ib_arr (BA1.sub bigger 0 b.ib_len);
    b.ib_arr <- bigger
  end;
  BA1.unsafe_set b.ib_arr b.ib_len x;
  b.ib_len <- b.ib_len + 1

(* The buffer's live prefix, zero-copy: (indices, count). *)
let ibuf_sel b = (b.ib_arr, b.ib_len)

(* ------------------------------------------------------------------ *)
(* Vectorized expression evaluation                                    *)
(* ------------------------------------------------------------------ *)

(* A select box's working set: columns addressed by (quantifier, column),
   one column vector per slot. *)
type lbatch = { lay : (int * string) array; lcols : C.t array; ln : int }

type vv = Vec of C.t | Scal of V.t

let vv_get ctx_n v i =
  ignore ctx_n;
  match v with Vec c -> C.get c i | Scal s -> s

let vv_null v i =
  match v with Vec c -> C.is_null c i | Scal s -> V.is_null s

let vv_col n = function Vec c -> c | Scal s -> C.const s n

let lay_index (lay : (int * string) array) quant col =
  let col = String.lowercase_ascii col in
  let n = Array.length lay in
  let rec go i =
    if i >= n then None
    else
      let q, c = lay.(i) in
      if q = quant && c = col then Some i else go (i + 1)
  in
  go 0

let lookup_col ctx { B.quant; col } =
  match lay_index ctx.lay quant col with
  | Some i -> ctx.lcols.(i)
  | None -> err "unresolved column reference q%d.%s" quant col

(* Merge null masks of two operands into a fresh result mask. *)
let merged_nulls n a b =
  let any =
    (match a with Vec { C.nulls = Some _; _ } -> true | Scal s -> V.is_null s | _ -> false)
    || (match b with Vec { C.nulls = Some _; _ } -> true | Scal s -> V.is_null s | _ -> false)
  in
  if not any then None
  else begin
    let m = Bytes.make n '\000' in
    for i = 0 to n - 1 do
      if vv_null a i || vv_null b i then Bytes.unsafe_set m i '\001'
    done;
    Some m
  end

type nview =
  | NIv of C.ints
  | NFv of C.floats
  | NIs of int
  | NFs of float
  | NNull
  | NOther

let num_view = function
  | Vec { C.data = C.Ints a; _ } -> NIv a
  | Vec { C.data = C.Floats a; _ } -> NFv a
  | Scal (V.Int x) -> NIs x
  | Scal (V.Float x) -> NFs x
  | Scal V.Null -> NNull
  | _ -> NOther

let all_null n = { C.data = C.Boxed (Array.make n V.Null); nulls = Some (Bytes.make n '\001') }

let int_ops = function
  | "+" -> Some ( + )
  | "-" -> Some ( - )
  | "*" -> Some ( * )
  | "/" -> Some (fun x y -> if y = 0 then raise Division_by_zero else x / y)
  | "%" -> Some (fun x y -> if y = 0 then raise Division_by_zero else x mod y)
  | _ -> None

let float_ops = function
  | "+" -> Some ( +. )
  | "-" -> Some ( -. )
  | "*" -> Some ( *. )
  | "/" -> Some ( /. )
  | _ -> None

let cmp_test = function
  | "=" -> Some (fun c -> c = 0)
  | "<>" -> Some (fun c -> c <> 0)
  | "<" -> Some (fun c -> c < 0)
  | "<=" -> Some (fun c -> c <= 0)
  | ">" -> Some (fun c -> c > 0)
  | ">=" -> Some (fun c -> c >= 0)
  | _ -> None

(* Per-row fallback through the scalar kernel: exact scalar semantics
   (including error messages) at boxed speed, for odd type combinations. *)
let boxed_binop op n a b =
  let va = Array.init n (fun i -> Eval.apply_binop op (vv_get n a i) (vv_get n b i)) in
  Vec (C.of_values va)

(* Materialize a numeric operand as a full-width typed buffer, so the op
   loops below run closure-free (composing accessor closures would box
   floats at every call). Padding under a null mask stays 0/0.0. *)
let int_coerce n = function
  | NIv a -> a
  | NIs x ->
      let out = C.scratch_ints n in
      BA1.fill out x;
      out
  | _ -> assert false

let float_coerce n = function
  | NFv a -> a
  | NIv a ->
      let out = C.scratch_floats n in
      for i = 0 to n - 1 do
        BA1.unsafe_set out i (float_of_int (BA1.unsafe_get a i))
      done;
      out
  | NFs x ->
      let out = C.scratch_floats n in
      BA1.fill out x;
      out
  | NIs x ->
      let out = C.scratch_floats n in
      BA1.fill out (float_of_int x);
      out
  | _ -> assert false

let arith op n a b =
  match (int_ops op, float_ops op, num_view a, num_view b) with
  | _, _, NNull, _ | _, _, _, NNull ->
      (* NULL absorbs before any type checking, as in Value.arith *)
      Vec (all_null n)
  | Some fi, _, ((NIv _ | NIs _) as va), ((NIv _ | NIs _) as vb) ->
      let x = int_coerce n va and y = int_coerce n vb in
      let out = C.scratch_ints n in
      let nulls = merged_nulls n a b in
      (match (op, nulls) with
      | "+", None ->
          for i = 0 to n - 1 do
            BA1.unsafe_set out i (BA1.unsafe_get x i + BA1.unsafe_get y i)
          done
      | "-", None ->
          for i = 0 to n - 1 do
            BA1.unsafe_set out i (BA1.unsafe_get x i - BA1.unsafe_get y i)
          done
      | "*", None ->
          for i = 0 to n - 1 do
            BA1.unsafe_set out i (BA1.unsafe_get x i * BA1.unsafe_get y i)
          done
      | _, None ->
          for i = 0 to n - 1 do
            BA1.unsafe_set out i (fi (BA1.unsafe_get x i) (BA1.unsafe_get y i))
          done
      | _, Some m ->
          (* masked rows are skipped, not computed: 0 padding under the
             mask must not raise Division_by_zero *)
          for i = 0 to n - 1 do
            if Bytes.unsafe_get m i = '\000' then
              BA1.unsafe_set out i (fi (BA1.unsafe_get x i) (BA1.unsafe_get y i))
            else BA1.unsafe_set out i 0
          done);
      Vec { C.data = C.Ints out; nulls }
  | _, Some _, ((NIv _ | NIs _ | NFv _ | NFs _) as va), ((NIv _ | NIs _ | NFv _ | NFs _) as vb)
    ->
      let x = float_coerce n va and y = float_coerce n vb in
      let out = C.scratch_floats n in
      let nulls = merged_nulls n a b in
      (* float ops cannot raise: compute every row branch-free, then zero
         the padding under the mask *)
      (match op with
      | "+" ->
          for i = 0 to n - 1 do
            BA1.unsafe_set out i (BA1.unsafe_get x i +. BA1.unsafe_get y i)
          done
      | "-" ->
          for i = 0 to n - 1 do
            BA1.unsafe_set out i (BA1.unsafe_get x i -. BA1.unsafe_get y i)
          done
      | "*" ->
          for i = 0 to n - 1 do
            BA1.unsafe_set out i (BA1.unsafe_get x i *. BA1.unsafe_get y i)
          done
      | "/" ->
          for i = 0 to n - 1 do
            BA1.unsafe_set out i (BA1.unsafe_get x i /. BA1.unsafe_get y i)
          done
      | _ -> assert false);
      (match nulls with
      | Some m ->
          for i = 0 to n - 1 do
            if Bytes.unsafe_get m i = '\001' then BA1.unsafe_set out i 0.0
          done
      | None -> ());
      Vec { C.data = C.Floats out; nulls }
  | _ -> boxed_binop op n a b

let compare_kernel a b =
  (* Returns [Some at] where [at i] is a V.compare-compatible int for
     non-null rows, or [None] when no typed comparison applies. *)
  match (a, b) with
  | Vec { C.data = C.Dates x; _ }, Vec { C.data = C.Dates y; _ } ->
      Some (fun i -> compare (BA1.unsafe_get x i) (BA1.unsafe_get y i))
  | Vec { C.data = C.Dates x; _ }, Scal (V.Date y) ->
      Some (fun i -> compare (BA1.unsafe_get x i) y)
  | Scal (V.Date x), Vec { C.data = C.Dates y; _ } ->
      Some (fun i -> compare x (BA1.unsafe_get y i))
  | Vec { C.data = C.Dict (xc, xd); _ }, Vec { C.data = C.Dict (yc, yd); _ } ->
      Some
        (fun i -> String.compare xd.(BA1.unsafe_get xc i) yd.(BA1.unsafe_get yc i))
  | Vec { C.data = C.Dict (xc, xd); _ }, Scal (V.Str s) ->
      (* precompute per-dictionary-code comparisons once *)
      let byc = Array.map (fun d -> String.compare d s) xd in
      Some (fun i -> byc.(BA1.unsafe_get xc i))
  | Scal (V.Str s), Vec { C.data = C.Dict (yc, yd); _ } ->
      let byc = Array.map (fun d -> String.compare s d) yd in
      Some (fun i -> byc.(BA1.unsafe_get yc i))
  | _ -> (
      (* one monomorphic closure per operand-shape pair: composing generic
         accessor closures would box every float crossing the boundary,
         which dominates the kernel at batch sizes *)
      match (num_view a, num_view b) with
      | NIv x, NIv y ->
          Some (fun i -> compare (BA1.unsafe_get x i) (BA1.unsafe_get y i))
      | NIv x, NIs y -> Some (fun i -> compare (BA1.unsafe_get x i) y)
      | NIs x, NIv y -> Some (fun i -> compare x (BA1.unsafe_get y i))
      | NIs x, NIs y ->
          let c = compare x y in
          Some (fun _ -> c)
      | NFv x, NFv y ->
          Some (fun i -> Float.compare (BA1.unsafe_get x i) (BA1.unsafe_get y i))
      | NFv x, NFs y -> Some (fun i -> Float.compare (BA1.unsafe_get x i) y)
      | NFs x, NFv y -> Some (fun i -> Float.compare x (BA1.unsafe_get y i))
      | NFs x, NFs y ->
          let c = Float.compare x y in
          Some (fun _ -> c)
      | NFv x, NIv y ->
          Some
            (fun i ->
              Float.compare (BA1.unsafe_get x i) (float_of_int (BA1.unsafe_get y i)))
      | NIv x, NFv y ->
          Some
            (fun i ->
              Float.compare (float_of_int (BA1.unsafe_get x i)) (BA1.unsafe_get y i))
      | NFv x, NIs y ->
          let yf = float_of_int y in
          Some (fun i -> Float.compare (BA1.unsafe_get x i) yf)
      | NIs x, NFv y ->
          let xf = float_of_int x in
          Some (fun i -> Float.compare xf (BA1.unsafe_get y i))
      | NIv x, NFs y ->
          Some (fun i -> Float.compare (float_of_int (BA1.unsafe_get x i)) y)
      | NFs x, NIv y ->
          Some (fun i -> Float.compare x (float_of_int (BA1.unsafe_get y i)))
      | NIs x, NFs y ->
          let c = Float.compare (float_of_int x) y in
          Some (fun _ -> c)
      | NFs x, NIs y ->
          let c = Float.compare x (float_of_int y) in
          Some (fun _ -> c)
      | (NNull | NOther), _ | _, (NNull | NOther) -> None)

let cmp op n a b =
  match cmp_test op with
  | None -> boxed_binop op n a b
  | Some test -> (
      match compare_kernel a b with
      | None -> boxed_binop op n a b
      | Some at ->
          let bits = Bytes.make n '\000' in
          let nulls = merged_nulls n a b in
          (match nulls with
          | None ->
              for i = 0 to n - 1 do
                if test (at i) then Bytes.unsafe_set bits i '\001'
              done
          | Some m ->
              for i = 0 to n - 1 do
                if Bytes.unsafe_get m i = '\000' && test (at i) then
                  Bytes.unsafe_set bits i '\001'
              done);
          Vec { C.data = C.Bools bits; nulls })

(* three-valued truth of a row: 0 = FALSE, 1 = TRUE, 2 = NULL; raises on
   non-boolean exactly where the scalar kernel would *)
let tri_of_value op = function
  | V.Bool true -> 1
  | V.Bool false -> 0
  | V.Null -> 2
  | _ -> raise (V.Type_error (op ^ " applied to non-boolean value"))

let tri_at op v =
  match v with
  | Scal s ->
      let t = tri_of_value op s in
      fun _ -> t
  | Vec ({ C.data = C.Bools bits; _ } as c) ->
      fun i -> if C.is_null c i then 2 else Char.code (Bytes.unsafe_get bits i)
  | Vec c -> fun i -> tri_of_value op (C.get c i)

(* Compact a select working set down to the columns [e] references and the
   rows of [sel] — the sub-batch on which a lazily-evaluated operand runs. *)
let compact_for ctx (sel, k) e =
  let refs =
    List.sort_uniq compare
      (List.map (fun r -> (r.B.quant, String.lowercase_ascii r.B.col)) (E.cols e))
  in
  let pairs =
    List.filter_map
      (fun (q, c) ->
        match lay_index ctx.lay q c with
        | Some i -> Some ((q, c), C.gather ctx.lcols.(i) sel k)
        | None -> None)
      refs
  in
  {
    lay = Array.of_list (List.map fst pairs);
    lcols = Array.of_list (List.map snd pairs);
    ln = k;
  }

let rec eval (ctx : lbatch) (e : B.qref E.t) : vv =
  let n = ctx.ln in
  match e with
  | E.Const v -> Scal v
  | E.Col r -> Vec (lookup_col ctx r)
  | E.Unop ("-", e') -> (
      let v = eval ctx e' in
      match v with
      | Scal s -> Scal (V.neg s)
      | Vec ({ C.data = C.Ints a; _ } as c) ->
          let out = C.scratch_ints n in
          for i = 0 to n - 1 do
            BA1.unsafe_set out i (-BA1.unsafe_get a i)
          done;
          Vec { c with C.data = C.Ints out }
      | Vec ({ C.data = C.Floats a; _ } as c) ->
          let out = C.scratch_floats n in
          for i = 0 to n - 1 do
            BA1.unsafe_set out i (-.BA1.unsafe_get a i)
          done;
          Vec { c with C.data = C.Floats out }
      | Vec c -> Vec (C.of_values (Array.init n (fun i -> V.neg (C.get c i)))))
  | E.Unop ("NOT", e') ->
      let v = eval ctx e' in
      let at = tri_at "NOT" v in
      let bits = Bytes.make n '\000' in
      let nulls = ref None in
      for i = 0 to n - 1 do
        match at i with
        | 0 -> Bytes.unsafe_set bits i '\001'
        | 1 -> ()
        | _ ->
            (match !nulls with
            | None -> nulls := Some (Bytes.make n '\000')
            | Some _ -> ());
            Bytes.set (Option.get !nulls) i '\001'
      done;
      Vec { C.data = C.Bools bits; nulls = !nulls }
  | E.Unop (op, _) -> err "unknown unary operator %s" op
  | E.Binop ("AND", a, b) -> and_or ctx ~op:"AND" a b
  | E.Binop ("OR", a, b) -> and_or ctx ~op:"OR" a b
  | E.Binop (op, a, b) -> (
      let va = eval ctx a in
      let vb = eval ctx b in
      match (va, vb) with
      | Scal x, Scal y -> Scal (Eval.apply_binop op x y)
      | _ ->
          if cmp_test op <> None then cmp op n va vb
          else if int_ops op <> None || float_ops op <> None then arith op n va vb
          else boxed_binop op n va vb)
  | E.Fncall (f, args) -> eval_fn ctx f args
  | E.Agg _ -> invalid_arg "Vexec.eval: aggregate outside a GROUP BY box"
  | E.Is_null (e', positive) -> (
      let v = eval ctx e' in
      match v with
      | Scal s -> Scal (V.Bool (if positive then V.is_null s else not (V.is_null s)))
      | Vec c ->
          let bits = Bytes.make n '\000' in
          for i = 0 to n - 1 do
            if C.is_null c i = positive then Bytes.unsafe_set bits i '\001'
          done;
          Vec { C.data = C.Bools bits; nulls = None })
  | E.Case _ ->
      (* boxed per-row fallback, like [eval_fn]'s: Eval tries the arms
         lazily per row, so an arm never runs on rows its WHEN excludes *)
      let e = E.map_col (lookup_col ctx) e in
      Vec (C.of_values (Array.init n (fun i -> Eval.eval (fun c -> C.get c i) e)))

(* AND/OR with Eval's short-circuit: the right operand is only evaluated
   on rows where the left side does not already decide. *)
and and_or ctx ~op a b =
  let n = ctx.ln in
  let va = eval ctx a in
  let short = if op = "AND" then 0 else 1 in
  let ta = tri_at op va in
  (* rows scalar evaluation would evaluate [b] on *)
  let live = ibuf_create n in
  let tas = Bytes.make n '\000' in
  for i = 0 to n - 1 do
    let t = ta i in
    Bytes.unsafe_set tas i (Char.unsafe_chr t);
    if t <> short then ibuf_push live i
  done;
  let sel, k = ibuf_sel live in
  let tb_of =
    if k = 0 then fun _ -> 0 (* never consulted *)
    else if k = n then
      let vb = eval ctx b in
      tri_at op vb
    else begin
      let sub = compact_for ctx (sel, k) b in
      let vb = eval sub b in
      let at = tri_at op vb in
      (* scatter: row index -> tri *)
      let by_row = Bytes.make n '\000' in
      for j = 0 to k - 1 do
        Bytes.unsafe_set by_row (BA1.unsafe_get sel j) (Char.unsafe_chr (at j))
      done;
      fun i -> Char.code (Bytes.unsafe_get by_row i)
    end
  in
  let bits = Bytes.make n '\000' in
  let nulls = ref None in
  let set_null i =
    (match !nulls with None -> nulls := Some (Bytes.make n '\000') | Some _ -> ());
    Bytes.set (Option.get !nulls) i '\001'
  in
  for i = 0 to n - 1 do
    let a_t = Char.code (Bytes.unsafe_get tas i) in
    let t =
      if a_t = short then short
      else
        let tb = tb_of i in
        if op = "AND" then
          match (a_t, tb) with
          | 1, x -> x
          | 2, 0 -> 0
          | 2, _ -> 2
          | _ -> assert false
        else
          match (a_t, tb) with
          | 0, x -> x
          | 2, 1 -> 1
          | 2, _ -> 2
          | _ -> assert false
    in
    if t = 1 then Bytes.unsafe_set bits i '\001' else if t = 2 then set_null i
  done;
  Vec { C.data = C.Bools bits; nulls = !nulls }

and eval_fn ctx f args =
  let n = ctx.ln in
  let vs = List.map (eval ctx) args in
  let boxed () =
    if List.for_all (function Scal _ -> true | Vec _ -> false) vs then
      Scal (Eval.apply_fn f (List.map (fun v -> vv_get n v 0) vs))
    else
      Vec
        (C.of_values
           (Array.init n (fun i -> Eval.apply_fn f (List.map (fun v -> vv_get n v i) vs))))
  in
  let imap a f =
    let k = BA1.dim a in
    let out = C.scratch_ints k in
    for i = 0 to k - 1 do
      BA1.unsafe_set out i (f (BA1.unsafe_get a i))
    done;
    out
  in
  match (String.lowercase_ascii f, vs) with
  | ("year" | "month" | "day"), [ Vec ({ C.data = C.Dates a; _ } as c) ] ->
      let proj =
        match String.lowercase_ascii f with
        | "year" -> fun e -> e / 10000
        | "month" -> fun e -> e / 100 mod 100
        | _ -> fun e -> e mod 100
      in
      Vec { C.data = C.Ints (imap a proj); nulls = c.C.nulls }
  | "float", [ Vec ({ C.data = C.Ints a; _ } as c) ] ->
      let k = BA1.dim a in
      let out = C.scratch_floats k in
      for i = 0 to k - 1 do
        BA1.unsafe_set out i (float_of_int (BA1.unsafe_get a i))
      done;
      Vec { C.data = C.Floats out; nulls = c.C.nulls }
  | "float", [ (Vec { C.data = C.Floats _; _ } as v) ] -> v
  | "abs", [ Vec ({ C.data = C.Ints a; _ } as c) ] ->
      Vec { C.data = C.Ints (imap a abs); nulls = c.C.nulls }
  | "abs", [ Vec ({ C.data = C.Floats a; _ } as c) ] ->
      let k = BA1.dim a in
      let out = C.scratch_floats k in
      for i = 0 to k - 1 do
        BA1.unsafe_set out i (Float.abs (BA1.unsafe_get a i))
      done;
      Vec { C.data = C.Floats out; nulls = c.C.nulls }
  | _ -> boxed ()

(* Selection: indices (ascending) of rows where [p] is definitely TRUE,
   as a (buffer, count) pair. *)
let select_rows ctx p =
  let n = ctx.ln in
  match eval ctx p with
  | Scal s ->
      if V.is_true s then begin
        let idx = C.scratch_ints n in
        for i = 0 to n - 1 do
          BA1.unsafe_set idx i i
        done;
        (idx, n)
      end
      else (C.scratch_ints 0, 0)
  | Vec ({ C.data = C.Bools bits; _ } as c) ->
      (* exact two-pass: count survivors, then fill a right-sized buffer *)
      let k = ref 0 in
      for i = 0 to n - 1 do
        if Bytes.unsafe_get bits i = '\001' && not (C.is_null c i) then incr k
      done;
      let idx = C.scratch_ints !k in
      let j = ref 0 in
      for i = 0 to n - 1 do
        if Bytes.unsafe_get bits i = '\001' && not (C.is_null c i) then begin
          BA1.unsafe_set idx !j i;
          incr j
        end
      done;
      (idx, !k)
  | Vec c ->
      let buf = ibuf_create (n / 2) in
      for i = 0 to n - 1 do
        if V.is_true (C.get c i) then ibuf_push buf i
      done;
      ibuf_sel buf

let gather_lbatch ctx (sel, k) =
  {
    lay = ctx.lay;
    lcols = Array.map (fun c -> C.gather c sel k) ctx.lcols;
    ln = k;
  }

(* ------------------------------------------------------------------ *)
(* Base scan                                                           *)
(* ------------------------------------------------------------------ *)

let batch_col_index (b : C.batch) name =
  let lname = String.lowercase_ascii name in
  let n = Array.length b.C.names in
  let rec go i =
    if i >= n then raise Not_found
    else if String.lowercase_ascii b.C.names.(i) = lname then i
    else go (i + 1)
  in
  go 0

let exec_base db { B.bt_table; bt_cols } : C.batch =
  let rel = Db.get_exn db bt_table in
  let full = C.cached rel in
  {
    C.names = Array.of_list bt_cols;
    cols = Array.of_list (List.map (fun c -> full.C.cols.(batch_col_index full c)) bt_cols);
    nrows = full.C.nrows;
  }

(* ------------------------------------------------------------------ *)
(* Select box: incremental hash join over batches                      *)
(* ------------------------------------------------------------------ *)

let pred_quant_set p = List.sort_uniq compare (List.map (fun r -> r.B.quant) (E.cols p))

(* Predicates safe to evaluate on rows a join might later discard: anything
   free of integer division/modulo, whose Division_by_zero would otherwise
   depend on which rows the join keeps. *)
let rec pred_safe = function
  | E.Const _ | E.Col _ -> true
  | E.Unop (_, e) | E.Is_null (e, _) -> pred_safe e
  | E.Binop (("/" | "%"), _, _) -> false
  | E.Binop (_, a, b) -> pred_safe a && pred_safe b
  | E.Fncall ("mod", _) -> false
  | E.Fncall (_, args) -> List.for_all pred_safe args
  | E.Agg _ | E.Case _ -> false

(* Single-int-key hash join: head table plus a next-index chain, built back
   to front so each chain enumerates build rows in ascending order (the
   generic path's match order). Pushes (probe, build) index pairs onto
   [li]/[ri]. Probe rows with [probe_null] are skipped; a [probe_key] with no build
   entry (e.g. the -1 sentinel from dictionary translation) simply misses. *)
let chain_join (build : C.ints) (bnulls : Bytes.t option) n_build
    (probe_null : int -> bool) (probe_key : int -> int) n_probe li ri =
  let head = Hashtbl.create (max 16 n_build) in
  let next = Array.make (max 1 n_build) (-1) in
  for i = n_build - 1 downto 0 do
    let isnull =
      match bnulls with Some m -> Bytes.unsafe_get m i = '\001' | None -> false
    in
    if not isnull then begin
      let k = BA1.unsafe_get build i in
      (match Hashtbl.find_opt head k with
      | Some j -> Array.unsafe_set next i j
      | None -> ());
      Hashtbl.replace head k i
    end
  done;
  for l = 0 to n_probe - 1 do
    if not (probe_null l) then
      match Hashtbl.find_opt head (probe_key l) with
      | None -> ()
      | Some j0 ->
          let j = ref j0 in
          while !j >= 0 do
            ibuf_push li l;
            ibuf_push ri !j;
            j := Array.unsafe_get next !j
          done
  done

let generic_join_matches (build_key : int -> V.t list option) n_build
    (probe_key : int -> V.t list option) : int -> int list =
  let ht = VH.create (max 16 n_build) in
  for i = 0 to n_build - 1 do
    match build_key i with None -> () | Some k -> VH.add ht k i
  done;
  fun p ->
    match probe_key p with None -> [] | Some k -> List.rev (VH.find_all ht k)

(* Keep the first occurrence of every row under SQL grouping equality:
   SELECT DISTINCT and UNION without ALL. *)
let distinct_rows (b : C.batch) : C.batch =
  let seen = VH.create 64 in
  let keep = ibuf_create b.C.nrows in
  for i = 0 to b.C.nrows - 1 do
    let key = Array.to_list (Array.map (fun c -> C.get c i) b.C.cols) in
    if not (VH.mem seen key) then begin
      VH.add seen key ();
      ibuf_push keep i
    end
  done;
  let sel, k = ibuf_sel keep in
  { b with C.cols = Array.map (fun c -> C.gather c sel k) b.C.cols; nrows = k }

let exec_select ~(child : B.quant -> C.batch) (sel : B.select_body) : C.batch =
  let { B.sel_quants = quants; sel_preds = preds; sel_outs = outs; sel_distinct = distinct } =
    sel
  in
  (* initial working set: scalar-subquery columns as single-row constants *)
  let init_lay = ref [] and init_cols = ref [] in
  List.iter
    (fun q ->
      if q.B.q_kind = B.Scalar then begin
        let cb = child q in
        let value ci =
          match cb.C.nrows with
          | 0 -> V.Null
          | 1 -> C.get cb.C.cols.(ci) 0
          | n -> err "scalar subquery returned %d rows" n
        in
        Array.iteri
          (fun ci col ->
            init_lay := !init_lay @ [ (q.B.q_id, String.lowercase_ascii col) ];
            init_cols := !init_cols @ [ C.of_values [| value ci |] ])
          cb.C.names
      end)
    quants;
  let ctx =
    ref
      {
        lay = Array.of_list !init_lay;
        lcols = Array.of_list !init_cols;
        ln = 1;
      }
  in
  let pending = ref (List.map (fun p -> (p, pred_quant_set p)) preds) in
  (* Columns the rest of the pipeline still needs: the outputs plus every
     pending predicate. Join keys live in [pending] until consumed, so a
     column is only pruned once nothing downstream can reference it. *)
  let needed () =
    let tbl = Hashtbl.create 32 in
    let note e =
      List.iter
        (fun r ->
          Hashtbl.replace tbl (r.B.quant, String.lowercase_ascii r.B.col) ())
        (E.cols e)
    in
    List.iter (fun (_, e) -> note e) outs;
    List.iter (fun (p, _) -> note p) !pending;
    tbl
  in
  let prune_lbatch tbl b =
    let ks = ref [] in
    Array.iteri
      (fun i key -> if Hashtbl.mem tbl key then ks := i :: !ks)
      b.lay;
    let ks = Array.of_list (List.rev !ks) in
    if Array.length ks = Array.length b.lay then b
    else
      {
        lay = Array.map (fun i -> b.lay.(i)) ks;
        lcols = Array.map (fun i -> b.lcols.(i)) ks;
        ln = b.ln;
      }
  in
  let lay_quants () =
    Array.to_list !ctx.lay |> List.map fst |> List.sort_uniq compare
  in
  let apply_applicable () =
    let avail = lay_quants () in
    let applicable, rest =
      List.partition
        (fun (_, qs) -> List.for_all (fun q -> List.mem q avail) qs)
        !pending
    in
    pending := rest;
    List.iter
      (fun (p, _) ->
        let (_, k) as sel = select_rows !ctx p in
        if k <> !ctx.ln then ctx := gather_lbatch !ctx sel)
      applicable
  in
  apply_applicable ();
  List.iter
    (fun q ->
      if q.B.q_kind = B.Foreach then begin
        let cb = child q in
        let cb_lnames = Array.map String.lowercase_ascii cb.C.names in
        let col_idx name =
          let name = String.lowercase_ascii name in
          let n = Array.length cb_lnames in
          let rec go i =
            if i >= n then
              err "column %s missing in child of quantifier %d" name q.B.q_id
            else if cb_lnames.(i) = name then i
            else go (i + 1)
          in
          go 0
        in
        (* usable equi-join keys: new-side col = working-set ref *)
        let keys = ref [] in
        pending :=
          List.filter
            (fun (p, _) ->
              match p with
              | E.Binop ("=", E.Col a, E.Col b) ->
                  let try_pair x y =
                    if
                      x.B.quant = q.B.q_id
                      && lay_index !ctx.lay y.B.quant y.B.col <> None
                    then begin
                      (* validate now, look the column up by name later:
                         pruning below shifts indices *)
                      let _ : int = col_idx x.B.col in
                      keys := (x.B.col, y) :: !keys;
                      true
                    end
                    else false
                  in
                  not (try_pair a b || try_pair b a)
              | _ -> true)
            !pending;
        (* push single-quant predicates below the join: filtering one input
           keeps both the probe-major and per-chain orders, so the output
           order does not depend on the pushdown *)
        let pushed, rest =
          List.partition (fun (p, qs) -> qs = [ q.B.q_id ] && pred_safe p) !pending
        in
        pending := rest;
        (* drop child columns nothing can touch anymore — before the
           pushdown filter materializes them *)
        let need0 =
          let tbl = needed () in
          let note e =
            List.iter
              (fun r ->
                Hashtbl.replace tbl (r.B.quant, String.lowercase_ascii r.B.col) ())
              (E.cols e)
          in
          List.iter (fun (p, _) -> note p) pushed;
          List.iter
            (fun (nm, _) ->
              Hashtbl.replace tbl (q.B.q_id, String.lowercase_ascii nm) ())
            !keys;
          tbl
        in
        let cbatch =
          ref
            (prune_lbatch need0
               {
                 lay = Array.map (fun nm -> (q.B.q_id, nm)) cb_lnames;
                 lcols = cb.C.cols;
                 ln = cb.C.nrows;
               })
        in
        List.iter
          (fun (p, _) ->
            let (_, k) as s = select_rows !cbatch p in
            if k <> !cbatch.ln then cbatch := gather_lbatch !cbatch s)
          pushed;
        let key_pairs =
          List.map
            (fun (nm, yref) ->
              let bc =
                match lay_index !cbatch.lay q.B.q_id nm with
                | Some i -> !cbatch.lcols.(i)
                | None -> err "join key %s pruned (internal error)" nm
              in
              (bc, lookup_col !ctx yref))
            !keys
        in
        let need = needed () in
        let cpruned = prune_lbatch need !cbatch in
        if Array.length !ctx.lay = 0 && !ctx.ln = 1 && key_pairs = [] then
          (* first scan over the unit row: adopt the filtered, pruned child
             wholesale instead of gathering a cross product *)
          ctx := cpruned
        else begin
          let lpruned = prune_lbatch need !ctx in
          let nl = !ctx.ln and nr = !cbatch.ln in
          let li = ibuf_create (max 16 (max nl nr)) in
          let ri = ibuf_create (max 16 (max nl nr)) in
          (match key_pairs with
          | [] ->
              (* cross product, left-major *)
              for l = 0 to nl - 1 do
                for r = 0 to nr - 1 do
                  ibuf_push li l;
                  ibuf_push ri r
                done
              done
          | [ (bc, pc) ] -> (
              (* single-key fast paths on physical representation *)
              match (bc.C.data, pc.C.data) with
              | C.Ints ba, C.Ints pa | C.Dates ba, C.Dates pa ->
                  chain_join ba bc.C.nulls nr
                    (fun l -> C.is_null pc l)
                    (fun l -> BA1.unsafe_get pa l)
                    nl li ri
              | C.Dict (bcodes, bdict), C.Dict (pcodes, pdict) ->
                  (* translate probe codes into the build dictionary; bdict
                     has unique strings by construction, but Dict columns
                     built via [const] may repeat — first wins *)
                  let by_str = Hashtbl.create (Array.length bdict) in
                  Array.iteri
                    (fun code s ->
                      if not (Hashtbl.mem by_str s) then Hashtbl.add by_str s code)
                    bdict;
                  let trans =
                    Array.map
                      (fun s ->
                        match Hashtbl.find_opt by_str s with
                        | Some c -> c
                        | None -> -1)
                      pdict
                  in
                  chain_join bcodes bc.C.nulls nr
                    (fun l -> C.is_null pc l)
                    (fun l -> Array.unsafe_get trans (BA1.unsafe_get pcodes l))
                    nl li ri
              | _ ->
                  let matches =
                    generic_join_matches
                      (fun i ->
                        let v = C.get bc i in
                        if V.is_null v then None else Some [ v ])
                      nr
                      (fun i ->
                        let v = C.get pc i in
                        if V.is_null v then None else Some [ v ])
                  in
                  for l = 0 to nl - 1 do
                    List.iter
                      (fun r ->
                        ibuf_push li l;
                        ibuf_push ri r)
                      (matches l)
                  done)
          | _ ->
              let key_of cols i =
                let vs = List.map (fun c -> C.get c i) cols in
                if List.exists V.is_null vs then None else Some vs
              in
              let bcols = List.map fst key_pairs
              and pcols = List.map snd key_pairs in
              let matches = generic_join_matches (key_of bcols) nr (key_of pcols) in
              for l = 0 to nl - 1 do
                List.iter
                  (fun r ->
                    ibuf_push li l;
                    ibuf_push ri r)
                  (matches l)
              done);
          let lsel, lk = ibuf_sel li and rsel, _ = ibuf_sel ri in
          ctx :=
            {
              lay = Array.append lpruned.lay cpruned.lay;
              lcols =
                Array.append
                  (Array.map (fun c -> C.gather c lsel lk) lpruned.lcols)
                  (Array.map (fun c -> C.gather c rsel lk) cpruned.lcols);
              ln = lk;
            }
        end;
        apply_applicable ()
      end)
    quants;
  if !pending <> [] then
    err "predicate references unavailable quantifier (internal error)";
  Obs.Metrics.add x_batch_rows !ctx.ln;
  (* project outputs *)
  let out_names = List.map fst outs in
  let out_cols =
    List.map (fun (_, e) -> vv_col !ctx.ln (eval !ctx e)) outs
  in
  let result =
    {
      C.names = Array.of_list out_names;
      cols = Array.of_list out_cols;
      nrows = !ctx.ln;
    }
  in
  if distinct then distinct_rows result else result

(* ------------------------------------------------------------------ *)
(* Group box: dense group ids + typed aggregate folds                  *)
(* ------------------------------------------------------------------ *)

(* Pass 1 result: per-row dense group id (first-seen order), the boxed key
   per group (for output), and the group count. *)
let group_ids (cb : C.batch) (key_idx : int list) : C.ints * V.t list array * int =
  let n = cb.C.nrows in
  let gids = C.scratch_ints n in
  let keys = ref [] and ngroups = ref 0 in
  (match key_idx with
  | [ ki ] -> (
      let c = cb.C.cols.(ki) in
      match c.C.data with
      | C.Ints a | C.Dates a ->
          let mk =
            match c.C.data with C.Dates _ -> fun x -> V.Date x | _ -> fun x -> V.Int x
          in
          let ht = Hashtbl.create 256 in
          let null_gid = ref (-1) in
          for i = 0 to n - 1 do
            if C.is_null c i then begin
              if !null_gid < 0 then begin
                null_gid := !ngroups;
                keys := [ V.Null ] :: !keys;
                incr ngroups
              end;
              BA1.unsafe_set gids i !null_gid
            end
            else
              let k = BA1.unsafe_get a i in
              match Hashtbl.find_opt ht k with
              | Some g -> BA1.unsafe_set gids i g
              | None ->
                  Hashtbl.add ht k !ngroups;
                  BA1.unsafe_set gids i !ngroups;
                  keys := [ mk k ] :: !keys;
                  incr ngroups
          done
      | C.Dict (codes, dict) ->
          (* dictionary codes are already dense group candidates *)
          let by_code = Array.make (Array.length dict + 1) (-1) in
          let nullslot = Array.length dict in
          for i = 0 to n - 1 do
            let slot = if C.is_null c i then nullslot else BA1.unsafe_get codes i in
            if by_code.(slot) < 0 then begin
              by_code.(slot) <- !ngroups;
              keys :=
                (if slot = nullslot then [ V.Null ] else [ V.Str dict.(slot) ]) :: !keys;
              incr ngroups
            end;
            BA1.unsafe_set gids i by_code.(slot)
          done
      | _ ->
          let ht = VH.create 256 in
          for i = 0 to n - 1 do
            let k = [ C.get c i ] in
            match VH.find_opt ht k with
            | Some g -> BA1.unsafe_set gids i g
            | None ->
                VH.add ht k !ngroups;
                BA1.unsafe_set gids i !ngroups;
                keys := k :: !keys;
                incr ngroups
          done)
  | _ ->
      let cols = List.map (fun i -> cb.C.cols.(i)) key_idx in
      let ht = VH.create 256 in
      for i = 0 to n - 1 do
        let k = List.map (fun c -> C.get c i) cols in
        match VH.find_opt ht k with
        | Some g -> BA1.unsafe_set gids i g
        | None ->
            VH.add ht k !ngroups;
            BA1.unsafe_set gids i !ngroups;
            keys := k :: !keys;
            incr ngroups
      done);
  (gids, Array.of_list (List.rev !keys), !ngroups)

(* DISTINCT aggregates: NULL out every repeat of a (group, value) pair, so
   the ordinary fold below sees each distinct value once per group. Values
   compare under SQL grouping equality, like group keys. *)
let mask_repeats n (gids : C.ints) (c : C.t) : C.t =
  let seen = VH.create 64 in
  let out = Array.make n V.Null in
  for i = 0 to n - 1 do
    let v = C.get c i in
    let key = [ V.Int (BA1.unsafe_get gids i); v ] in
    if not (V.is_null v || VH.mem seen key) then begin
      VH.add seen key ();
      out.(i) <- v
    end
  done;
  C.of_values out

(* Fold one aggregate over [n] rows in a typed loop; yields per-gid V.t. *)
let fold_agg n (gids : C.ints) ngroups (agg : E.agg) (arg : C.t option) counts
    : int -> V.t =
  match agg.E.fn with
  | E.Count_star -> fun g -> V.Int counts.(g)
  | _ -> (
      match arg with
      | None ->
          (* COUNT/SUM/... over no argument: every input is NULL *)
          fun _ ->
            (match agg.E.fn with E.Count -> V.Int 0 | _ -> V.Null)
      | Some c -> (
          let nonnull = Array.make ngroups 0 in
          let tally i g = if not (C.is_null c i) then nonnull.(g) <- nonnull.(g) + 1 in
          for i = 0 to n - 1 do
            tally i (BA1.unsafe_get gids i)
          done;
          match agg.E.fn with
          | E.Count_star -> assert false
          | E.Count -> fun g -> V.Int nonnull.(g)
          | E.Sum | E.Avg -> (
              let finish_sum g sum_int sum_float is_int =
                if nonnull.(g) = 0 then V.Null
                else if agg.E.fn = E.Sum then
                  if is_int then V.Int sum_int else V.Float sum_float
                else
                  V.Float
                    ((if is_int then float_of_int sum_int else sum_float)
                    /. float_of_int nonnull.(g))
              in
              match c.C.data with
              | C.Ints a ->
                  let sums = Array.make ngroups 0 in
                  for i = 0 to n - 1 do
                    if not (C.is_null c i) then begin
                      let g = BA1.unsafe_get gids i in
                      sums.(g) <- sums.(g) + BA1.unsafe_get a i
                    end
                  done;
                  fun g -> finish_sum g sums.(g) 0.0 true
              | C.Floats a ->
                  let sums = Array.make ngroups 0.0 in
                  for i = 0 to n - 1 do
                    if not (C.is_null c i) then begin
                      let g = BA1.unsafe_get gids i in
                      sums.(g) <- sums.(g) +. BA1.unsafe_get a i
                    end
                  done;
                  fun g -> finish_sum g 0 sums.(g) false
              | _ ->
                  (* boxed fallback: the scalar V.add fold *)
                  let sums = Array.make ngroups V.Null in
                  for i = 0 to n - 1 do
                    if not (C.is_null c i) then begin
                      let g = BA1.unsafe_get gids i in
                      let v = C.get c i in
                      sums.(g) <- (if V.is_null sums.(g) then v else V.add sums.(g) v)
                    end
                  done;
                  fun g ->
                    if V.is_null sums.(g) then V.Null
                    else if agg.E.fn = E.Sum then sums.(g)
                    else V.Float (V.to_float sums.(g) /. float_of_int nonnull.(g)))
          | E.Min | E.Max -> (
              let better =
                if agg.E.fn = E.Min then fun c -> c < 0 else fun c -> c > 0
              in
              match c.C.data with
              | C.Ints a | C.Dates a ->
                  let best = Array.make ngroups 0 in
                  let seen = Array.make ngroups false in
                  for i = 0 to n - 1 do
                    if not (C.is_null c i) then begin
                      let g = BA1.unsafe_get gids i in
                      let x = BA1.unsafe_get a i in
                      if (not seen.(g)) || better (compare x best.(g)) then begin
                        best.(g) <- x;
                        seen.(g) <- true
                      end
                    end
                  done;
                  let mk =
                    match c.C.data with
                    | C.Dates _ -> fun x -> V.Date x
                    | _ -> fun x -> V.Int x
                  in
                  fun g -> if seen.(g) then mk best.(g) else V.Null
              | C.Floats a ->
                  let best = Array.make ngroups 0.0 in
                  let seen = Array.make ngroups false in
                  for i = 0 to n - 1 do
                    if not (C.is_null c i) then begin
                      let g = BA1.unsafe_get gids i in
                      let x = BA1.unsafe_get a i in
                      if (not seen.(g)) || better (Float.compare x best.(g)) then begin
                        best.(g) <- x;
                        seen.(g) <- true
                      end
                    end
                  done;
                  fun g -> if seen.(g) then V.Float best.(g) else V.Null
              | C.Dict (codes, dict) ->
                  let best = Array.make ngroups "" in
                  let seen = Array.make ngroups false in
                  for i = 0 to n - 1 do
                    if not (C.is_null c i) then begin
                      let g = BA1.unsafe_get gids i in
                      let s = dict.(BA1.unsafe_get codes i) in
                      if (not seen.(g)) || better (String.compare s best.(g)) then begin
                        best.(g) <- s;
                        seen.(g) <- true
                      end
                    end
                  done;
                  fun g -> if seen.(g) then V.Str best.(g) else V.Null
              | _ ->
                  let best = Array.make ngroups V.Null in
                  for i = 0 to n - 1 do
                    if not (C.is_null c i) then begin
                      let g = BA1.unsafe_get gids i in
                      let v = C.get c i in
                      if V.is_null best.(g) || better (V.compare v best.(g)) then
                        best.(g) <- v
                    end
                  done;
                  fun g -> best.(g))))

let exec_group ~(child : B.quant -> C.batch) (grp : B.group_body) : C.batch =
  let cb = child grp.B.grp_quant in
  let idx name = batch_col_index cb name in
  let union_cols = B.grouping_union grp.B.grp_grouping in
  let out_names = union_cols @ List.map fst grp.B.grp_aggs in
  let agg_specs =
    List.map
      (fun (_, { B.agg; arg }) -> (agg, Option.map (fun a -> cb.C.cols.(idx a)) arg))
      grp.B.grp_aggs
  in
  Obs.Metrics.add x_batch_rows cb.C.nrows;
  let cuboid set : V.t array list (* per output column, per-gid values *) * int =
    let set_l = List.map String.lowercase_ascii set in
    let key_idx = List.map idx set in
    let gids, keys, ngroups = group_ids cb key_idx in
    let keys, ngroups =
      if ngroups = 0 && set = [] then ([| [] |], 1) else (keys, ngroups)
    in
    let counts = Array.make ngroups 0 in
    let n = cb.C.nrows in
    for i = 0 to n - 1 do
      let g = BA1.unsafe_get gids i in
      counts.(g) <- counts.(g) + 1
    done;
    let union_vals =
      List.map
        (fun col ->
          match
            List.find_index (fun c -> c = String.lowercase_ascii col) set_l
          with
          | Some j -> Array.map (fun key -> List.nth key j) keys
          | None -> Array.make ngroups V.Null)
        union_cols
    in
    let agg_vals =
      List.map
        (fun (agg, arg) ->
          let arg =
            if agg.E.distinct then Option.map (mask_repeats n gids) arg else arg
          in
          let at = fold_agg n gids ngroups agg arg counts in
          Array.init ngroups at)
        agg_specs
    in
    (union_vals @ agg_vals, ngroups)
  in
  let pieces = List.map cuboid (B.grouping_sets grp.B.grp_grouping) in
  let total = List.fold_left (fun acc (_, k) -> acc + k) 0 pieces in
  let ncols = List.length out_names in
  let out_cols =
    List.init ncols (fun ci ->
        let vals = Array.make total V.Null in
        let off = ref 0 in
        List.iter
          (fun (cols, k) ->
            Array.blit (List.nth cols ci) 0 vals !off k;
            off := !off + k)
          pieces;
        C.of_values vals)
  in
  { C.names = Array.of_list out_names; cols = Array.of_list out_cols; nrows = total }

(* ------------------------------------------------------------------ *)
(* Union box: column-wise concatenation of the branches                *)
(* ------------------------------------------------------------------ *)

let exec_union ~(child : B.quant -> C.batch) (u : B.union_body) : C.batch =
  let arity = List.length u.B.un_cols in
  let branches =
    List.map
      (fun q ->
        let b = child q in
        if Array.length b.C.cols <> arity then err "UNION branch arity mismatch";
        b)
      u.B.un_quants
  in
  let result =
    {
      C.names = Array.of_list u.B.un_cols;
      cols =
        Array.init arity (fun j ->
            C.of_values
              (Array.concat (List.map (fun b -> C.to_values b.C.cols.(j)) branches)));
      nrows = List.fold_left (fun acc b -> acc + b.C.nrows) 0 branches;
    }
  in
  Obs.Metrics.add x_batch_rows result.C.nrows;
  if u.B.un_all then result else distinct_rows result
