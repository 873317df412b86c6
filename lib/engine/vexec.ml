(* Vectorized (batch-at-a-time) QGM operators over typed column vectors.

   Execution here is column-at-a-time over whole-relation batches: scan
   reads a table's stored batch from Db as it is, filter evaluates
   predicates as vector kernels narrowing a selection vector, joins group
   key columns together and compose the row-index vectors of matching
   rows, a column is gathered only when something reads it, and aggregation
   assigns dense group ids through one packed-key kernel then folds each
   aggregate in a tight typed loop into typed outputs (SELECT DISTINCT and
   UNION arrive as key-only GROUP BYs). The same kernel dedupes DISTINCT
   aggregates (repeated (group, value) pairs are masked to NULL before the
   ordinary fold); keys it cannot pack fall back to boxed hashing. CASE,
   which has no typed kernel, evaluates per row through Eval.

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
(* The working set: source columns read through row-index vectors      *)
(* ------------------------------------------------------------------ *)

(* A select box's working set, materialized late. Slot [i], addressed by
   [lay.(i)] = (quantifier, column), is the column [src.(i)] read through
   the row-index vector of its row space [space.(i)]: [rows.(s)] gives
   each of the [ln] working-set rows its row in the source ([None] is the
   identity). A filter narrows every row space and a join composes each
   side's spaces with its match vector, so neither copies a column. A slot
   is gathered when an expression, a join key or an output first reads
   it, and kept in [mat] until the rows change. *)
type lbatch = {
  lay : (int * string) array;
  src : C.t array;
  space : int array;
  rows : C.ints option array;
  ln : int;
  mat : C.t option array;
}

(* [cols] as [n] working-set rows in one identity row space *)
let lbatch_of lay cols n =
  let k = Array.length cols in
  { lay; src = cols; space = Array.make k 0; rows = [| None |]; ln = n; mat = Array.make k None }

let slot_col ctx i =
  match ctx.mat.(i) with
  | Some c -> c
  | None ->
      let c =
        match ctx.rows.(ctx.space.(i)) with
        | None -> ctx.src.(i)
        | Some r -> C.gather ctx.src.(i) r ctx.ln
      in
      ctx.mat.(i) <- Some c;
      c

(* [b]'s rows at positions [pos] ([k] of them): every row space composes
   with [pos], and nothing gathered under the old rows is kept. *)
let reindex b pos k =
  {
    b with
    rows = Array.map (function None -> Some pos | Some r -> Some (C.gather_index r pos k)) b.rows;
    ln = k;
    mat = Array.make (Array.length b.src) None;
  }

(* [a]'s and [b]'s slots side by side, over the same rows *)
let append a b =
  let off = Array.length a.rows in
  {
    lay = Array.append a.lay b.lay;
    src = Array.append a.src b.src;
    space = Array.append a.space (Array.map (fun s -> s + off) b.space);
    rows = Array.append a.rows b.rows;
    ln = a.ln;
    mat = Array.append a.mat b.mat;
  }

let lay_index (lay : (int * string) array) quant col =
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
  | Some i -> slot_col ctx i
  | None -> err "unresolved column reference q%d.%s" quant col

(* ------------------------------------------------------------------ *)
(* Vectorized expression evaluation                                    *)
(* ------------------------------------------------------------------ *)

(* An expression's value over the working set's rows. A [Vec] belongs to
   the working set or the database and no kernel writes it; a [Tmp] is a
   buffer this evaluation made, read only by the enclosing expression, so
   an arithmetic node may write its result into it. *)
type vv = Vec of C.t | Tmp of C.t | Scal of V.t

let vv_get v i = match v with Vec c | Tmp c -> C.get c i | Scal s -> s

let vv_col n = function Vec c | Tmp c -> c | Scal s -> C.const s n

(* The NULL mask of a binary result: the one operand mask when only one
   operand has one (a mask is never written once built), else a fresh
   union. *)
let merged_nulls n a b =
  let mask = function
    | Vec c | Tmp c -> c.C.nulls
    | Scal s -> if V.is_null s then Some (Bytes.make n '\001') else None
  in
  match (mask a, mask b) with
  | None, None -> None
  | (Some _ as m), None | None, (Some _ as m) -> m
  | Some x, Some y ->
      let m = Bytes.make n '\000' in
      for i = 0 to n - 1 do
        if Bytes.unsafe_get x i = '\001' || Bytes.unsafe_get y i = '\001' then
          Bytes.unsafe_set m i '\001'
      done;
      Some m

type nview =
  | NIv of C.ints
  | NFv of C.floats
  | NIs of int
  | NFs of float
  | NNull
  | NOther

let num_view = function
  | Vec { C.data = C.Ints a; _ } | Tmp { C.data = C.Ints a; _ } -> NIv a
  | Vec { C.data = C.Floats a; _ } | Tmp { C.data = C.Floats a; _ } -> NFv a
  | Scal (V.Int x) -> NIs x
  | Scal (V.Float x) -> NFs x
  | Scal V.Null -> NNull
  | _ -> NOther

let all_null n = { C.data = C.Boxed (Array.make n V.Null); nulls = Some (Bytes.make n '\001') }

let is_int_op = function "+" | "-" | "*" | "/" | "%" -> true | _ -> false
let is_float_op = function "+" | "-" | "*" | "/" -> true | _ -> false

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
  Tmp (C.of_values (Array.init n (fun i -> Eval.apply_binop op (vv_get a i) (vv_get b i))))

(* The buffer an arithmetic node writes: an operand's own [Tmp] buffer of
   the result's kind if there is one, else a fresh one. Each loop below
   reads a row's operands before it writes the row, so [out] may be one
   of them. *)
let out_ints n a b =
  match (a, b) with
  | Tmp { C.data = C.Ints o; _ }, _ | _, Tmp { C.data = C.Ints o; _ } -> o
  | _ -> C.scratch_ints n

let out_floats n a b =
  match (a, b) with
  | Tmp { C.data = C.Floats o; _ }, _ | _, Tmp { C.data = C.Floats o; _ } -> o
  | _ -> C.scratch_floats n

(* Integer kernels, one per operand shape (vector-vector, vector-scalar,
   scalar-vector) with a loop per operator. [+ - *] compute every row and
   the caller zeroes the masked ones; [/ %] skip the rows of [m] (writing
   0), whose padding must not raise Division_by_zero, and raise it on any
   other zero divisor, as [Value.div] does. *)
let int_vv op n (out : C.ints) (x : C.ints) (y : C.ints) m =
  match (op, m) with
  | "+", _ ->
      for i = 0 to n - 1 do BA1.unsafe_set out i (BA1.unsafe_get x i + BA1.unsafe_get y i) done
  | "-", _ ->
      for i = 0 to n - 1 do BA1.unsafe_set out i (BA1.unsafe_get x i - BA1.unsafe_get y i) done
  | "*", _ ->
      for i = 0 to n - 1 do BA1.unsafe_set out i (BA1.unsafe_get x i * BA1.unsafe_get y i) done
  | "/", None ->
      for i = 0 to n - 1 do BA1.unsafe_set out i (BA1.unsafe_get x i / BA1.unsafe_get y i) done
  | "/", Some m ->
      for i = 0 to n - 1 do
        BA1.unsafe_set out i
          (if Bytes.unsafe_get m i = '\000' then BA1.unsafe_get x i / BA1.unsafe_get y i else 0)
      done
  | _, None ->
      for i = 0 to n - 1 do
        BA1.unsafe_set out i (BA1.unsafe_get x i mod BA1.unsafe_get y i)
      done
  | _, Some m ->
      for i = 0 to n - 1 do
        BA1.unsafe_set out i
          (if Bytes.unsafe_get m i = '\000' then BA1.unsafe_get x i mod BA1.unsafe_get y i
           else 0)
      done

let int_vs op n (out : C.ints) (x : C.ints) (y : int) m =
  match (op, m) with
  | "+", _ -> for i = 0 to n - 1 do BA1.unsafe_set out i (BA1.unsafe_get x i + y) done
  | "-", _ -> for i = 0 to n - 1 do BA1.unsafe_set out i (BA1.unsafe_get x i - y) done
  | "*", _ -> for i = 0 to n - 1 do BA1.unsafe_set out i (BA1.unsafe_get x i * y) done
  | "/", None -> for i = 0 to n - 1 do BA1.unsafe_set out i (BA1.unsafe_get x i / y) done
  | "/", Some m ->
      for i = 0 to n - 1 do
        BA1.unsafe_set out i (if Bytes.unsafe_get m i = '\000' then BA1.unsafe_get x i / y else 0)
      done
  | _, None -> for i = 0 to n - 1 do BA1.unsafe_set out i (BA1.unsafe_get x i mod y) done
  | _, Some m ->
      for i = 0 to n - 1 do
        BA1.unsafe_set out i
          (if Bytes.unsafe_get m i = '\000' then BA1.unsafe_get x i mod y else 0)
      done

let int_sv op n (out : C.ints) (x : int) (y : C.ints) m =
  match (op, m) with
  | "+", _ -> for i = 0 to n - 1 do BA1.unsafe_set out i (x + BA1.unsafe_get y i) done
  | "-", _ -> for i = 0 to n - 1 do BA1.unsafe_set out i (x - BA1.unsafe_get y i) done
  | "*", _ -> for i = 0 to n - 1 do BA1.unsafe_set out i (x * BA1.unsafe_get y i) done
  | "/", None -> for i = 0 to n - 1 do BA1.unsafe_set out i (x / BA1.unsafe_get y i) done
  | "/", Some m ->
      for i = 0 to n - 1 do
        BA1.unsafe_set out i (if Bytes.unsafe_get m i = '\000' then x / BA1.unsafe_get y i else 0)
      done
  | _, None -> for i = 0 to n - 1 do BA1.unsafe_set out i (x mod BA1.unsafe_get y i) done
  | _, Some m ->
      for i = 0 to n - 1 do
        BA1.unsafe_set out i
          (if Bytes.unsafe_get m i = '\000' then x mod BA1.unsafe_get y i else 0)
      done

(* Float kernels, one per operand shape with a loop per operator. An INT
   vector is read through [float_of_int] per row and a scalar arrives
   already a float, so no operand is widened into a buffer of its own. *)
let float_ff op n (out : C.floats) (x : C.floats) (y : C.floats) =
  match op with
  | "+" ->
      for i = 0 to n - 1 do BA1.unsafe_set out i (BA1.unsafe_get x i +. BA1.unsafe_get y i) done
  | "-" ->
      for i = 0 to n - 1 do BA1.unsafe_set out i (BA1.unsafe_get x i -. BA1.unsafe_get y i) done
  | "*" ->
      for i = 0 to n - 1 do BA1.unsafe_set out i (BA1.unsafe_get x i *. BA1.unsafe_get y i) done
  | _ ->
      for i = 0 to n - 1 do BA1.unsafe_set out i (BA1.unsafe_get x i /. BA1.unsafe_get y i) done

let float_fi op n (out : C.floats) (x : C.floats) (y : C.ints) =
  match op with
  | "+" ->
      for i = 0 to n - 1 do
        BA1.unsafe_set out i (BA1.unsafe_get x i +. float_of_int (BA1.unsafe_get y i))
      done
  | "-" ->
      for i = 0 to n - 1 do
        BA1.unsafe_set out i (BA1.unsafe_get x i -. float_of_int (BA1.unsafe_get y i))
      done
  | "*" ->
      for i = 0 to n - 1 do
        BA1.unsafe_set out i (BA1.unsafe_get x i *. float_of_int (BA1.unsafe_get y i))
      done
  | _ ->
      for i = 0 to n - 1 do
        BA1.unsafe_set out i (BA1.unsafe_get x i /. float_of_int (BA1.unsafe_get y i))
      done

let float_if op n (out : C.floats) (x : C.ints) (y : C.floats) =
  match op with
  | "+" ->
      for i = 0 to n - 1 do
        BA1.unsafe_set out i (float_of_int (BA1.unsafe_get x i) +. BA1.unsafe_get y i)
      done
  | "-" ->
      for i = 0 to n - 1 do
        BA1.unsafe_set out i (float_of_int (BA1.unsafe_get x i) -. BA1.unsafe_get y i)
      done
  | "*" ->
      for i = 0 to n - 1 do
        BA1.unsafe_set out i (float_of_int (BA1.unsafe_get x i) *. BA1.unsafe_get y i)
      done
  | _ ->
      for i = 0 to n - 1 do
        BA1.unsafe_set out i (float_of_int (BA1.unsafe_get x i) /. BA1.unsafe_get y i)
      done

let float_fs op n (out : C.floats) (x : C.floats) (y : float) =
  match op with
  | "+" -> for i = 0 to n - 1 do BA1.unsafe_set out i (BA1.unsafe_get x i +. y) done
  | "-" -> for i = 0 to n - 1 do BA1.unsafe_set out i (BA1.unsafe_get x i -. y) done
  | "*" -> for i = 0 to n - 1 do BA1.unsafe_set out i (BA1.unsafe_get x i *. y) done
  | _ -> for i = 0 to n - 1 do BA1.unsafe_set out i (BA1.unsafe_get x i /. y) done

let float_sf op n (out : C.floats) (x : float) (y : C.floats) =
  match op with
  | "+" -> for i = 0 to n - 1 do BA1.unsafe_set out i (x +. BA1.unsafe_get y i) done
  | "-" -> for i = 0 to n - 1 do BA1.unsafe_set out i (x -. BA1.unsafe_get y i) done
  | "*" -> for i = 0 to n - 1 do BA1.unsafe_set out i (x *. BA1.unsafe_get y i) done
  | _ -> for i = 0 to n - 1 do BA1.unsafe_set out i (x /. BA1.unsafe_get y i) done

let float_is op n (out : C.floats) (x : C.ints) (y : float) =
  match op with
  | "+" -> for i = 0 to n - 1 do BA1.unsafe_set out i (float_of_int (BA1.unsafe_get x i) +. y) done
  | "-" -> for i = 0 to n - 1 do BA1.unsafe_set out i (float_of_int (BA1.unsafe_get x i) -. y) done
  | "*" -> for i = 0 to n - 1 do BA1.unsafe_set out i (float_of_int (BA1.unsafe_get x i) *. y) done
  | _ -> for i = 0 to n - 1 do BA1.unsafe_set out i (float_of_int (BA1.unsafe_get x i) /. y) done

let float_si op n (out : C.floats) (x : float) (y : C.ints) =
  match op with
  | "+" -> for i = 0 to n - 1 do BA1.unsafe_set out i (x +. float_of_int (BA1.unsafe_get y i)) done
  | "-" -> for i = 0 to n - 1 do BA1.unsafe_set out i (x -. float_of_int (BA1.unsafe_get y i)) done
  | "*" -> for i = 0 to n - 1 do BA1.unsafe_set out i (x *. float_of_int (BA1.unsafe_get y i)) done
  | _ -> for i = 0 to n - 1 do BA1.unsafe_set out i (x /. float_of_int (BA1.unsafe_get y i)) done

let arith op n a b =
  match (num_view a, num_view b) with
  | NNull, _ | _, NNull ->
      (* NULL absorbs before any type checking, as in Value.arith *)
      Tmp (all_null n)
  | ((NIv _ | NIs _) as x), ((NIv _ | NIs _) as y) when is_int_op op ->
      let out = out_ints n a b and nulls = merged_nulls n a b in
      (match (x, y) with
      | NIv x, NIv y -> int_vv op n out x y nulls
      | NIv x, NIs y -> int_vs op n out x y nulls
      | NIs x, NIv y -> int_sv op n out x y nulls
      | _ -> assert false (* [eval] folds two constants itself *));
      (match (op, nulls) with
      | ("+" | "-" | "*"), Some m ->
          for i = 0 to n - 1 do
            if Bytes.unsafe_get m i = '\001' then BA1.unsafe_set out i 0
          done
      | _ -> ());
      Tmp { C.data = C.Ints out; nulls }
  | ((NIv _ | NIs _ | NFv _ | NFs _) as x), ((NIv _ | NIs _ | NFv _ | NFs _) as y)
    when is_float_op op ->
      let out = out_floats n a b and nulls = merged_nulls n a b in
      (* scalars are hoisted to floats once *)
      let fs = function NIs s -> float_of_int s | NFs s -> s | _ -> assert false in
      (match (x, y) with
      | NFv x, NFv y -> float_ff op n out x y
      | NFv x, NIv y -> float_fi op n out x y
      | NIv x, NFv y -> float_if op n out x y
      | NFv x, s -> float_fs op n out x (fs s)
      | s, NFv y -> float_sf op n out (fs s) y
      | NIv x, s -> float_is op n out x (fs s)
      | s, NIv y -> float_si op n out (fs s) y
      | _ -> assert false (* [eval] folds two constants itself *));
      (* float ops cannot raise: every row is computed branch-free, then
         the padding under the mask is zeroed *)
      (match nulls with
      | Some m ->
          for i = 0 to n - 1 do
            if Bytes.unsafe_get m i = '\001' then BA1.unsafe_set out i 0.0
          done
      | None -> ());
      Tmp { C.data = C.Floats out; nulls }
  | _ -> boxed_binop op n a b

let compare_kernel a b =
  (* Returns [Some at] where [at i] is a V.compare-compatible int for
     non-null rows, or [None] when no typed comparison applies. *)
  let ro = function Tmp c -> Vec c | v -> v in
  match (ro a, ro b) with
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
          Tmp { C.data = C.Bools bits; nulls })

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
  | Vec ({ C.data = C.Bools bits; _ } as c) | Tmp ({ C.data = C.Bools bits; _ } as c) ->
      fun i -> if C.is_null c i then 2 else Char.code (Bytes.unsafe_get bits i)
  | Vec c | Tmp c -> fun i -> tri_of_value op (C.get c i)

(* The working set's columns [e] references, at the rows of [sel] — the
   sub-batch on which a lazily-evaluated operand runs. *)
let compact_for ctx (sel, k) e =
  let refs =
    List.sort_uniq compare
      (List.map (fun r -> (r.B.quant, r.B.col)) (E.cols e))
  in
  let pairs =
    List.filter_map
      (fun (q, c) ->
        match lay_index ctx.lay q c with
        | Some i -> Some ((q, c), C.gather (slot_col ctx i) sel k)
        | None -> None)
      refs
  in
  lbatch_of (Array.of_list (List.map fst pairs)) (Array.of_list (List.map snd pairs)) k

(* A constant subexpression is folded once per batch, and only when the
   batch has a row to read it: row-at-a-time evaluation never runs it over
   no rows, so neither may its error (1 / 0) surface then. *)
let fold n f = if n = 0 then Scal V.Null else Scal (f ())

let rec eval (ctx : lbatch) (e : B.qref E.t) : vv =
  let n = ctx.ln in
  match e with
  | E.Const v -> Scal v
  | E.Col r -> Vec (lookup_col ctx r)
  | E.Unop ("-", e') -> (
      match eval ctx e' with
      | Scal s -> fold n (fun () -> V.neg s)
      | (Vec ({ C.data = C.Ints a; _ } as c) | Tmp ({ C.data = C.Ints a; _ } as c)) as v ->
          let out = match v with Tmp _ -> a | _ -> C.scratch_ints n in
          for i = 0 to n - 1 do
            BA1.unsafe_set out i (-BA1.unsafe_get a i)
          done;
          Tmp { c with C.data = C.Ints out }
      | (Vec ({ C.data = C.Floats a; _ } as c) | Tmp ({ C.data = C.Floats a; _ } as c)) as v
        ->
          let out = match v with Tmp _ -> a | _ -> C.scratch_floats n in
          for i = 0 to n - 1 do
            BA1.unsafe_set out i (-.BA1.unsafe_get a i)
          done;
          Tmp { c with C.data = C.Floats out }
      | Vec c | Tmp c -> Tmp (C.of_values (Array.init n (fun i -> V.neg (C.get c i)))))
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
      Tmp { C.data = C.Bools bits; nulls = !nulls }
  | E.Unop (op, _) -> err "unknown unary operator %s" op
  | E.Binop ("AND", a, b) -> and_or ctx ~op:"AND" a b
  | E.Binop ("OR", a, b) -> and_or ctx ~op:"OR" a b
  | E.Binop (op, a, b) -> (
      let va = eval ctx a in
      let vb = eval ctx b in
      match (va, vb) with
      | Scal x, Scal y -> fold n (fun () -> Eval.apply_binop op x y)
      | _ ->
          if cmp_test op <> None then cmp op n va vb
          else if is_int_op op || is_float_op op then arith op n va vb
          else boxed_binop op n va vb)
  | E.Fncall (f, args) -> eval_fn ctx f args
  | E.Agg _ -> invalid_arg "Vexec.eval: aggregate outside a GROUP BY box"
  | E.Is_null (e', positive) -> (
      let v = eval ctx e' in
      match v with
      | Scal s -> Scal (V.Bool (if positive then V.is_null s else not (V.is_null s)))
      | Vec c | Tmp c ->
          let bits = Bytes.make n '\000' in
          for i = 0 to n - 1 do
            if C.is_null c i = positive then Bytes.unsafe_set bits i '\001'
          done;
          Tmp { C.data = C.Bools bits; nulls = None })
  | E.Case _ ->
      (* boxed per-row fallback, like [eval_fn]'s: Eval tries the arms
         lazily per row, so an arm never runs on rows its WHEN excludes *)
      let e = E.map_col (lookup_col ctx) e in
      Tmp (C.of_values (Array.init n (fun i -> Eval.eval (fun c -> C.get c i) e)))

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
  Tmp { C.data = C.Bools bits; nulls = !nulls }

and eval_fn ctx f args =
  let n = ctx.ln in
  let vs = List.map (eval ctx) args in
  let boxed () =
    if List.for_all (function Scal _ -> true | Vec _ | Tmp _ -> false) vs then
      fold n (fun () -> Eval.apply_fn f (List.map (fun v -> vv_get v 0) vs))
    else
      Tmp
        (C.of_values
           (Array.init n (fun i -> Eval.apply_fn f (List.map (fun v -> vv_get v i) vs))))
  in
  match (f, vs) with
  | ( (("year" | "month" | "day") as part),
      [ (Vec ({ C.data = C.Dates a; _ } as c) | Tmp ({ C.data = C.Dates a; _ } as c)) ] ) ->
      (* yyyymmdd; NULL padding 0 projects to 0 *)
      let k = BA1.dim a in
      let out = C.scratch_ints k in
      (match part with
      | "year" ->
          for i = 0 to k - 1 do
            BA1.unsafe_set out i (BA1.unsafe_get a i / 10000)
          done
      | "month" ->
          for i = 0 to k - 1 do
            BA1.unsafe_set out i (BA1.unsafe_get a i / 100 mod 100)
          done
      | _ ->
          for i = 0 to k - 1 do
            BA1.unsafe_set out i (BA1.unsafe_get a i mod 100)
          done);
      Tmp { C.data = C.Ints out; nulls = c.C.nulls }
  | "float", [ (Vec ({ C.data = C.Ints a; _ } as c) | Tmp ({ C.data = C.Ints a; _ } as c)) ]
    ->
      let k = BA1.dim a in
      let out = C.scratch_floats k in
      for i = 0 to k - 1 do
        BA1.unsafe_set out i (float_of_int (BA1.unsafe_get a i))
      done;
      Tmp { C.data = C.Floats out; nulls = c.C.nulls }
  | "float", [ ((Vec { C.data = C.Floats _; _ } | Tmp { C.data = C.Floats _; _ }) as v) ] -> v
  | "abs", [ (Vec ({ C.data = C.Ints a; _ } as c) | Tmp ({ C.data = C.Ints a; _ } as c)) as v ]
    ->
      let k = BA1.dim a in
      let out = match v with Tmp _ -> a | _ -> C.scratch_ints k in
      for i = 0 to k - 1 do
        BA1.unsafe_set out i (abs (BA1.unsafe_get a i))
      done;
      Tmp { C.data = C.Ints out; nulls = c.C.nulls }
  | ( "abs",
      [ (Vec ({ C.data = C.Floats a; _ } as c) | Tmp ({ C.data = C.Floats a; _ } as c)) as v ] )
    ->
      let k = BA1.dim a in
      let out = match v with Tmp _ -> a | _ -> C.scratch_floats k in
      for i = 0 to k - 1 do
        BA1.unsafe_set out i (Float.abs (BA1.unsafe_get a i))
      done;
      Tmp { C.data = C.Floats out; nulls = c.C.nulls }
  | _ -> boxed ()

(* ------------------------------------------------------------------ *)
(* Filters: narrowing the working set                                  *)
(* ------------------------------------------------------------------ *)

(* Rows [bits] marks true outside [nulls], as a (buffer, count) pair:
   each one's index, or [through]'s entry at it. Two exact passes, count
   then fill, so the buffer is right-sized; none when every row passes. *)
let survivors ~through n (bits : Bytes.t) (nulls : Bytes.t option) : C.ints * int =
  let k = ref 0 in
  (match nulls with
  | None ->
      for i = 0 to n - 1 do
        if Bytes.unsafe_get bits i = '\001' then incr k
      done
  | Some m ->
      for i = 0 to n - 1 do
        if Bytes.unsafe_get bits i = '\001' && Bytes.unsafe_get m i = '\000' then incr k
      done);
  let k = !k in
  if k = n then (C.scratch_ints 0, k)
  else begin
    let idx = C.scratch_ints k in
    let j = ref 0 in
    (match (nulls, through) with
    | None, None ->
        for i = 0 to n - 1 do
          if Bytes.unsafe_get bits i = '\001' then begin
            BA1.unsafe_set idx !j i;
            incr j
          end
        done
    | None, Some (t : C.ints) ->
        for i = 0 to n - 1 do
          if Bytes.unsafe_get bits i = '\001' then begin
            BA1.unsafe_set idx !j (BA1.unsafe_get t i);
            incr j
          end
        done
    | Some m, None ->
        for i = 0 to n - 1 do
          if Bytes.unsafe_get bits i = '\001' && Bytes.unsafe_get m i = '\000' then begin
            BA1.unsafe_set idx !j i;
            incr j
          end
        done
    | Some m, Some t ->
        for i = 0 to n - 1 do
          if Bytes.unsafe_get bits i = '\001' && Bytes.unsafe_get m i = '\000' then begin
            BA1.unsafe_set idx !j (BA1.unsafe_get t i);
            incr j
          end
        done);
    (idx, k)
  end

(* The working set narrowed to the rows where [p] is definitely TRUE. [p]
   reads only the columns it references, at the current rows. With one
   row space the survivors are written as source rows directly; with
   several, each space composes with their positions. *)
let filter ctx p =
  let n = ctx.ln in
  let one = Array.length ctx.rows = 1 in
  let through = if one then ctx.rows.(0) else None in
  let sel, k =
    match eval ctx p with
    | Scal s -> if V.is_true s then (C.scratch_ints 0, n) else (C.scratch_ints 0, 0)
    | Vec { C.data = C.Bools bits; nulls } | Tmp { C.data = C.Bools bits; nulls } ->
        survivors ~through n bits nulls
    | Vec c | Tmp c ->
        let buf = ibuf_create (n / 2) in
        for i = 0 to n - 1 do
          if V.is_true (C.get c i) then
            ibuf_push buf (match through with None -> i | Some t -> BA1.unsafe_get t i)
        done;
        ibuf_sel buf
  in
  if k = n then ctx
  else if one then
    { ctx with rows = [| Some sel |]; ln = k; mat = Array.make (Array.length ctx.src) None }
  else reindex ctx sel k

(* ------------------------------------------------------------------ *)
(* Base scan                                                           *)
(* ------------------------------------------------------------------ *)

let batch_col_index (b : C.batch) name =
  match Array.find_index (String.equal name) b.C.names with
  | Some i -> i
  | None -> raise Not_found

let exec_base db { B.bt_table; bt_cols } : C.batch =
  let full = Db.batch db bt_table in
  {
    C.names = Array.of_list bt_cols;
    cols = Array.of_list (List.map (fun c -> full.C.cols.(batch_col_index full c)) bt_cols);
    nrows = full.C.nrows;
  }

(* ------------------------------------------------------------------ *)
(* Select box: joins over batches                                      *)
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

(* ------------------------------------------------------------------ *)
(* Grouping kernel: packed int keys, boxed fallback                    *)
(* ------------------------------------------------------------------ *)

(* Which path each grouping call took: the kernel's own coverage, read by
   its property test. *)
let x_group_dense = Obs.Metrics.counter "exec.group_dense"
let x_group_probe = Obs.Metrics.counter "exec.group_probe"
let x_group_boxed = Obs.Metrics.counter "exec.group_boxed"

(* A growable int buffer on the OCaml heap, for the boxed fallback's
   group-sized state: it grows by doubling, which inside the scratch arena
   would strand every outgrown copy until the run ends. *)
type gbuf = { mutable g_arr : int array; mutable g_len : int }

let gbuf_create () = { g_arr = Array.make 256 0; g_len = 0 }

let gbuf_push b x =
  if b.g_len = Array.length b.g_arr then begin
    let bigger = Array.make (2 * b.g_len) 0 in
    Array.blit b.g_arr 0 bigger 0 b.g_len;
    b.g_arr <- bigger
  end;
  Array.unsafe_set b.g_arr b.g_len x;
  b.g_len <- b.g_len + 1

(* the first [len] elements of [a], in the scratch arena *)
let ints_of_prefix (a : int array) len =
  let out = C.scratch_ints len in
  for i = 0 to len - 1 do
    BA1.unsafe_set out i (Array.unsafe_get a i)
  done;
  out

(* Int-backed columns, whose physical codes are equal exactly when the
   values are equal under grouping equality (dictionary entries are
   distinct, so a string has one code). *)
let int_codes (c : C.t) =
  match c.C.data with C.Ints a | C.Dates a | C.Dict (a, _) -> Some a | _ -> None

(* Add column [a]'s slots times [stride] into [out]; the first column
   writes instead. A NULL row's slot is 0: the first column writes 0 there
   and a later one leaves the row alone. *)
let pack_col n ~first (a : C.ints) (nulls : Bytes.t option) ~base ~stride (out : C.ints) =
  match (nulls, first) with
  | None, true ->
      for i = 0 to n - 1 do
        BA1.unsafe_set out i ((BA1.unsafe_get a i + base) * stride)
      done
  | None, false ->
      for i = 0 to n - 1 do
        BA1.unsafe_set out i (BA1.unsafe_get out i + ((BA1.unsafe_get a i + base) * stride))
      done
  | Some m, true ->
      for i = 0 to n - 1 do
        BA1.unsafe_set out i
          (if Bytes.unsafe_get m i = '\001' then 0 else (BA1.unsafe_get a i + base) * stride)
      done
  | Some m, false ->
      for i = 0 to n - 1 do
        if Bytes.unsafe_get m i = '\000' then
          BA1.unsafe_set out i (BA1.unsafe_get out i + ((BA1.unsafe_get a i + base) * stride))
      done

(* Pack every row's key into [out] as one int, column at a time: column
   [j] contributes its slot times the product of the radices before it,
   where slot 0 is NULL (NULL groups with NULL) and value [x] is slot
   [x - lo + 1]. A column with no non-NULL row adds nothing, whatever its
   representation. Returns the key-space size, or [None] when a column is
   not int-backed or the radix product overflows. [bounds c a] is the
   min and max of [c]'s codes [a] over its non-NULL rows. *)
let pack_keys ~bounds n (cols : C.t list) (out : C.ints) : int option =
  let rec plan acc space = function
    | [] -> Some (List.rev acc, space)
    | c :: rest -> (
        match int_codes c with
        | None when C.is_all_null c -> plan acc space rest (* one slot: adds 0 *)
        | None -> None
        | Some a ->
            let lo, hi = bounds c a in
            let radix =
              if lo > hi then Some 1 (* no non-NULL rows: only slot 0 *)
              else
                let span = hi - lo in
                (* a negative span is a wrapped subtraction *)
                if span < 0 || span > max_int - 2 then None else Some (span + 2)
            in
            match radix with
            | Some r when space <= max_int / r ->
                plan ((c, a, lo, space) :: acc) (space * r) rest
            | _ -> None)
  in
  match plan [] 1 cols with
  | None -> None
  | Some (specs, space) ->
      if specs = [] then BA1.fill out 0;
      List.iteri
        (fun j (c, a, lo, stride) ->
          pack_col n ~first:(j = 0) a c.C.nulls ~base:(1 - lo) ~stride out)
        specs;
      Some space

(* The open-addressing table for [n] rows has [2 ^ probe_bits n >= 2n]
   slots. A key's home slot is the top bits of a Fibonacci multiplicative
   mix. *)
let probe_bits n =
  let rec go b = if 1 lsl b >= 2 * n then b else go (b + 1) in
  go 1

let probe_home bits k = (k * 0x1e3779b97f4a7c15) lsr (63 - bits)

(* Replace every packed key in [keys] by its group id, in first-seen
   order; returns each group's first row and the group count. A key space
   up to twice the row count (or 1024) indexes a dense array; a larger one
   probes an open-addressing table. There are at most [min n space]
   groups, so every table is allocated once at its final size, on the
   heap: the probe table's load stays at or below one half. *)
let assign_packed n (keys : C.ints) space : C.ints * int =
  let firsts = Array.make (min n space) 0 and ngroups = ref 0 in
  if space <= max 1024 (2 * n) then begin
    Obs.Metrics.incr x_group_dense;
    let gid_of = Array.make space (-1) in
    for i = 0 to n - 1 do
      let k = BA1.unsafe_get keys i in
      let g = Array.unsafe_get gid_of k in
      if g >= 0 then BA1.unsafe_set keys i g
      else begin
        let g = !ngroups in
        Array.unsafe_set gid_of k g;
        Array.unsafe_set firsts g i;
        BA1.unsafe_set keys i g;
        ngroups := g + 1
      end
    done
  end
  else begin
    Obs.Metrics.incr x_group_probe;
    (* Linear probing over group ids (-1 empty); [gkeys] holds each
       group's packed key. The loop calls no closure. *)
    let bits = probe_bits n in
    let table = Array.make (1 lsl bits) (-1) and mask = (1 lsl bits) - 1 in
    let gkeys = Array.make (min n space) 0 in
    for i = 0 to n - 1 do
      let k = BA1.unsafe_get keys i in
      let j = ref (probe_home bits k) in
      let g = ref (Array.unsafe_get table !j) in
      while !g >= 0 && Array.unsafe_get gkeys !g <> k do
        j := (!j + 1) land mask;
        g := Array.unsafe_get table !j
      done;
      if !g >= 0 then BA1.unsafe_set keys i !g
      else begin
        let g = !ngroups in
        Array.unsafe_set table !j g;
        Array.unsafe_set gkeys g k;
        Array.unsafe_set firsts g i;
        BA1.unsafe_set keys i g;
        ngroups := g + 1
      end
    done
  end;
  (ints_of_prefix firsts !ngroups, !ngroups)

(* The fallback for FLOAT, BOOL and boxed keys, and for packed keys that
   overflow: boxed key lists under SQL grouping equality. *)
let assign_boxed n (cols : C.t list) (gids : C.ints) : C.ints * int =
  Obs.Metrics.incr x_group_boxed;
  let ht = VH.create 256 and firsts = gbuf_create () in
  for i = 0 to n - 1 do
    let k = List.map (fun c -> C.get c i) cols in
    match VH.find_opt ht k with
    | Some g -> BA1.unsafe_set gids i g
    | None ->
        let g = firsts.g_len in
        VH.add ht k g;
        gbuf_push firsts i;
        BA1.unsafe_set gids i g
  done;
  (ints_of_prefix firsts.g_arr firsts.g_len, firsts.g_len)

(* Group [n] rows by the key columns [cols]: a dense group id per row in
   first-seen order, each group's first row, and the group count. A caller
   grouping the same columns several times passes [bounds] to scan each
   column's min and max once. *)
let group_rows ?bounds n (cols : C.t list) : C.ints * C.ints * int =
  let bounds =
    match bounds with Some b -> b | None -> fun (c : C.t) a -> C.int_bounds n a c.C.nulls
  in
  let gids = C.scratch_ints n in
  let firsts, ngroups =
    match pack_keys ~bounds n cols gids with
    | Some space -> assign_packed n gids space
    | None -> assign_boxed n cols gids
  in
  (gids, firsts, ngroups)

(* Equi-join [nb] build rows with [np] probe rows on [key_pairs] (build
   column, probe column): the matching probe rows, the matching build rows
   and the match count, probe-major with build rows ascending. Both sides
   group together through the kernel; build rows chain per group back to
   front, and each probe row walks its group's chain. A row with a NULL key
   column joins nothing; with no key pair every row shares one group, so
   the same loop emits the cross product. *)
let join_rows key_pairs ~nb ~np : C.ints * C.ints * int =
  let keys = List.map (fun (b, p) -> C.concat [ b; p ]) key_pairs in
  let gids, _, ngroups = group_rows (nb + np) keys in
  (* the rows with a NULL key column, merged once *)
  let nulls =
    match List.filter_map (fun c -> c.C.nulls) keys with
    | [] -> None
    | [ m ] -> Some m
    | ms ->
        let any = Bytes.make (nb + np) '\000' in
        List.iter
          (fun m ->
            for i = 0 to nb + np - 1 do
              if Bytes.unsafe_get m i = '\001' then Bytes.unsafe_set any i '\001'
            done)
          ms;
        Some any
  in
  (* chain links in the scratch arena: a build side of base-table size
     would otherwise leave a heap array per join for the major GC *)
  let head = C.scratch_ints ngroups and next = C.scratch_ints nb in
  BA1.fill head (-1);
  let li = ibuf_create (max nb np) and ri = ibuf_create (max nb np) in
  for i = nb - 1 downto 0 do
    if match nulls with None -> true | Some m -> Bytes.unsafe_get m i = '\000' then begin
      let g = BA1.unsafe_get gids i in
      BA1.unsafe_set next i (BA1.unsafe_get head g);
      BA1.unsafe_set head g i
    end
  done;
  for l = 0 to np - 1 do
    if match nulls with None -> true | Some m -> Bytes.unsafe_get m (nb + l) = '\000'
    then begin
      let j = ref (BA1.unsafe_get head (BA1.unsafe_get gids (nb + l))) in
      while !j >= 0 do
        ibuf_push li l;
        ibuf_push ri !j;
        j := BA1.unsafe_get next !j
      done
    end
  done;
  let lsel, k = ibuf_sel li and rsel, _ = ibuf_sel ri in
  (lsel, rsel, k)

let exec_select ~(child : B.quant -> C.batch) (sel : B.select_body) : C.batch =
  let { B.sel_quants = quants; sel_preds = preds; sel_outs = outs } = sel in
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
            init_lay := !init_lay @ [ (q.B.q_id, col) ];
            init_cols := !init_cols @ [ C.of_values [| value ci |] ])
          cb.C.names
      end)
    quants;
  let ctx = ref (lbatch_of (Array.of_list !init_lay) (Array.of_list !init_cols) 1) in
  let pending = ref (List.map (fun p -> (p, pred_quant_set p)) preds) in
  (* Columns the rest of the pipeline still needs: the outputs plus every
     pending predicate. Join keys live in [pending] until consumed, so a
     column is only pruned once nothing downstream can reference it. *)
  let needed () =
    let tbl = Hashtbl.create 32 in
    let note e =
      List.iter
        (fun r ->
          Hashtbl.replace tbl (r.B.quant, r.B.col) ())
        (E.cols e)
    in
    List.iter (fun (_, e) -> note e) outs;
    List.iter (fun (p, _) -> note p) !pending;
    tbl
  in
  (* the slots [tbl] names, and only the row spaces they use *)
  let prune_lbatch tbl b =
    let ks = ref [] in
    Array.iteri
      (fun i key -> if Hashtbl.mem tbl key then ks := i :: !ks)
      b.lay;
    let ks = Array.of_list (List.rev !ks) in
    if Array.length ks = Array.length b.lay then b
    else begin
      let renum = Array.make (Array.length b.rows) (-1) and kept = ref [] in
      Array.iter
        (fun i ->
          let s = b.space.(i) in
          if renum.(s) < 0 then begin
            renum.(s) <- List.length !kept;
            kept := s :: !kept
          end)
        ks;
      {
        lay = Array.map (fun i -> b.lay.(i)) ks;
        src = Array.map (fun i -> b.src.(i)) ks;
        space = Array.map (fun i -> renum.(b.space.(i))) ks;
        rows = Array.of_list (List.rev_map (fun s -> b.rows.(s)) !kept);
        ln = b.ln;
        mat = Array.map (fun i -> b.mat.(i)) ks;
      }
    end
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
    List.iter (fun (p, _) -> ctx := filter !ctx p) applicable
  in
  apply_applicable ();
  List.iter
    (fun q ->
      if q.B.q_kind = B.Foreach then begin
        let cb = child q in
        let col_idx name =
          match Array.find_index (String.equal name) cb.C.names with
          | Some i -> i
          | None -> err "column %s missing in child of quantifier %d" name q.B.q_id
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
        (* drop child columns nothing can touch anymore *)
        let need0 =
          let tbl = needed () in
          let note e =
            List.iter
              (fun r ->
                Hashtbl.replace tbl (r.B.quant, r.B.col) ())
              (E.cols e)
          in
          List.iter (fun (p, _) -> note p) pushed;
          List.iter
            (fun (nm, _) ->
              Hashtbl.replace tbl (q.B.q_id, nm) ())
            !keys;
          tbl
        in
        let cbatch =
          ref
            (prune_lbatch need0
               (lbatch_of (Array.map (fun nm -> (q.B.q_id, nm)) cb.C.names) cb.C.cols cb.C.nrows))
        in
        (* the pushed filters narrow the child's selection vector; its
           columns are gathered only once something reads them *)
        List.iter (fun (p, _) -> cbatch := filter !cbatch p) pushed;
        let key_pairs =
          List.map
            (fun (nm, yref) ->
              let bc =
                match lay_index !cbatch.lay q.B.q_id nm with
                | Some i -> slot_col !cbatch i
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
          let lsel, rsel, lk = join_rows key_pairs ~nb:nr ~np:nl in
          (* each side's row spaces compose with its match vector: the
             pushed filters' selection reaches the join without a gather *)
          ctx := append (reindex lpruned lsel lk) (reindex cpruned rsel lk)
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
  {
    C.names = Array.of_list out_names;
    cols = Array.of_list out_cols;
    nrows = !ctx.ln;
  }

(* ------------------------------------------------------------------ *)
(* Group box: dense group ids + typed aggregate folds                  *)
(* ------------------------------------------------------------------ *)

(* The folds below read row [i]'s group as [gids.{i land gm}]. A GROUP BY
   passes its row-sized group ids and [gm = -1]; a global aggregate passes
   one slot holding group 0 and [gm = 0], so it folds every row into that
   group without a row-sized buffer of zeros. *)

(* DISTINCT aggregates: NULL out every repeat of a (group, value) pair, so
   the ordinary fold below sees each distinct value once per group. The
   pairs group through the kernel, so values compare under SQL grouping
   equality, like group keys; a global aggregate groups the values alone. *)
let mask_repeats n (gids : C.ints) gm (c : C.t) : C.t =
  let group = if gm = 0 then [] else [ { C.data = C.Ints gids; nulls = None } ] in
  let ids, _, _ = group_rows n (group @ [ c ]) in
  let m = Bytes.make n '\000' and next = ref 0 in
  for i = 0 to n - 1 do
    (* ids are first-seen: a row opens a new pair iff it takes the next id *)
    let fresh = BA1.unsafe_get ids i = !next in
    if fresh then incr next;
    if (not fresh) || C.is_null c i then Bytes.unsafe_set m i '\001'
  done;
  C.with_nulls c m

(* NULL exactly where a group saw no non-NULL input *)
let empty_groups ngroups (nonnull : int array) =
  if Array.for_all (fun k -> k > 0) nonnull then None
  else Some (Bytes.init ngroups (fun g -> if nonnull.(g) = 0 then '\001' else '\000'))

let ints_of_array (a : int array) : C.t =
  let out = C.scratch_ints (Array.length a) in
  for g = 0 to Array.length a - 1 do
    BA1.unsafe_set out g (Array.unsafe_get a g)
  done;
  { C.data = C.Ints out; nulls = None }

(* Per-group sums of [a]'s rows outside [nulls]. *)
let sum_ints n (gids : C.ints) gm ngroups (a : C.ints) (nulls : Bytes.t option) : C.ints =
  let sums = C.scratch_ints ngroups in
  BA1.fill sums 0;
  (match nulls with
  | None ->
      for i = 0 to n - 1 do
        let g = BA1.unsafe_get gids (i land gm) in
        BA1.unsafe_set sums g (BA1.unsafe_get sums g + BA1.unsafe_get a i)
      done
  | Some m ->
      for i = 0 to n - 1 do
        if Bytes.unsafe_get m i = '\000' then begin
          let g = BA1.unsafe_get gids (i land gm) in
          BA1.unsafe_set sums g (BA1.unsafe_get sums g + BA1.unsafe_get a i)
        end
      done);
  sums

let sum_floats n (gids : C.ints) gm ngroups (a : C.floats) (nulls : Bytes.t option) :
    C.floats =
  let sums = C.scratch_floats ngroups in
  BA1.fill sums 0.0;
  (match nulls with
  | None ->
      for i = 0 to n - 1 do
        let g = BA1.unsafe_get gids (i land gm) in
        BA1.unsafe_set sums g (BA1.unsafe_get sums g +. BA1.unsafe_get a i)
      done
  | Some m ->
      for i = 0 to n - 1 do
        if Bytes.unsafe_get m i = '\000' then begin
          let g = BA1.unsafe_get gids (i land gm) in
          BA1.unsafe_set sums g (BA1.unsafe_get sums g +. BA1.unsafe_get a i)
        end
      done);
  sums

(* MIN ([sign] = 1) and MAX ([sign] = -1): record in [best] each group's
   row holding its least (greatest) value among the rows outside [nulls],
   the first such row on ties; [best] starts at -1, which a group without
   one keeps. *)
let best_ints sign n (gids : C.ints) gm (a : C.ints) (nulls : Bytes.t option) best =
  match nulls with
  | None ->
      for i = 0 to n - 1 do
        let g = BA1.unsafe_get gids (i land gm) in
        let b = Array.unsafe_get best g in
        if b < 0 || sign * compare (BA1.unsafe_get a i) (BA1.unsafe_get a b) < 0 then
          Array.unsafe_set best g i
      done
  | Some m ->
      for i = 0 to n - 1 do
        if Bytes.unsafe_get m i = '\000' then begin
          let g = BA1.unsafe_get gids (i land gm) in
          let b = Array.unsafe_get best g in
          if b < 0 || sign * compare (BA1.unsafe_get a i) (BA1.unsafe_get a b) < 0 then
            Array.unsafe_set best g i
        end
      done

let best_floats sign n (gids : C.ints) gm (a : C.floats) (nulls : Bytes.t option) best =
  match nulls with
  | None ->
      for i = 0 to n - 1 do
        let g = BA1.unsafe_get gids (i land gm) in
        let b = Array.unsafe_get best g in
        if b < 0 || sign * Float.compare (BA1.unsafe_get a i) (BA1.unsafe_get a b) < 0
        then Array.unsafe_set best g i
      done
  | Some m ->
      for i = 0 to n - 1 do
        if Bytes.unsafe_get m i = '\000' then begin
          let g = BA1.unsafe_get gids (i land gm) in
          let b = Array.unsafe_get best g in
          if b < 0 || sign * Float.compare (BA1.unsafe_get a i) (BA1.unsafe_get a b) < 0
          then Array.unsafe_set best g i
        end
      done

let best_dict sign n (gids : C.ints) gm (codes : C.ints) (dict : string array)
    (nulls : Bytes.t option) best =
  match nulls with
  | None ->
      for i = 0 to n - 1 do
        let g = BA1.unsafe_get gids (i land gm) in
        let b = Array.unsafe_get best g in
        if
          b < 0
          || sign
             * String.compare dict.(BA1.unsafe_get codes i) dict.(BA1.unsafe_get codes b)
             < 0
        then Array.unsafe_set best g i
      done
  | Some m ->
      for i = 0 to n - 1 do
        if Bytes.unsafe_get m i = '\000' then begin
          let g = BA1.unsafe_get gids (i land gm) in
          let b = Array.unsafe_get best g in
          if
            b < 0
            || sign
               * String.compare dict.(BA1.unsafe_get codes i) dict.(BA1.unsafe_get codes b)
               < 0
          then Array.unsafe_set best g i
        end
      done

(* [a]'s value at each group's best row; 0 for a group with none *)
let pick_ints (a : C.ints) (best : int array) : C.ints =
  let out = C.scratch_ints (Array.length best) in
  for g = 0 to Array.length best - 1 do
    let b = Array.unsafe_get best g in
    BA1.unsafe_set out g (if b < 0 then 0 else BA1.unsafe_get a b)
  done;
  out

let pick_floats (a : C.floats) (best : int array) : C.floats =
  let out = C.scratch_floats (Array.length best) in
  for g = 0 to Array.length best - 1 do
    let b = Array.unsafe_get best g in
    BA1.unsafe_set out g (if b < 0 then 0.0 else BA1.unsafe_get a b)
  done;
  out

(* Fold one aggregate over [n] rows in a typed loop, into a typed column
   of [ngroups] rows; only boxed arguments fold and re-classify boxed. *)
let fold_agg n (gids : C.ints) gm ngroups (agg : E.agg) (arg : C.t option)
    (counts : int array) : C.t =
  match (agg.E.fn, arg) with
  | E.Count_star, _ -> ints_of_array counts
  | E.Count, None -> ints_of_array (Array.make ngroups 0)
  | _, None -> all_null ngroups (* SUM/MIN/... over no argument *)
  | fn, Some c -> (
      let mask = c.C.nulls in
      (* per-group non-NULL inputs; without a mask that is the row count *)
      let nonnull =
        match mask with
        | None -> counts
        | Some m ->
            let k = Array.make ngroups 0 in
            for i = 0 to n - 1 do
              if Bytes.unsafe_get m i = '\000' then begin
                let g = BA1.unsafe_get gids (i land gm) in
                Array.unsafe_set k g (Array.unsafe_get k g + 1)
              end
            done;
            k
      in
      let nulls = empty_groups ngroups nonnull in
      let boxed f = C.of_values (Array.init ngroups f) in
      match fn with
      | E.Count_star -> assert false
      | E.Count -> ints_of_array nonnull
      | E.Sum | E.Avg -> (
          let avg (sums : C.floats) =
            let out = C.scratch_floats ngroups in
            for g = 0 to ngroups - 1 do
              let k = nonnull.(g) in
              BA1.unsafe_set out g
                (if k = 0 then 0.0 else BA1.unsafe_get sums g /. float_of_int k)
            done;
            { C.data = C.Floats out; nulls }
          in
          match c.C.data with
          | C.Ints a ->
              let sums = sum_ints n gids gm ngroups a mask in
              if fn = E.Sum then { C.data = C.Ints sums; nulls }
              else begin
                let fsums = C.scratch_floats ngroups in
                for g = 0 to ngroups - 1 do
                  BA1.unsafe_set fsums g (float_of_int (BA1.unsafe_get sums g))
                done;
                avg fsums
              end
          | C.Floats a ->
              let sums = sum_floats n gids gm ngroups a mask in
              if fn = E.Sum then { C.data = C.Floats sums; nulls } else avg sums
          | _ ->
              (* boxed fallback: the scalar V.add fold *)
              let sums = Array.make ngroups V.Null in
              for i = 0 to n - 1 do
                if not (C.is_null c i) then begin
                  let g = BA1.unsafe_get gids (i land gm) in
                  let v = C.get c i in
                  sums.(g) <- (if V.is_null sums.(g) then v else V.add sums.(g) v)
                end
              done;
              boxed (fun g ->
                  if V.is_null sums.(g) || fn = E.Sum then sums.(g)
                  else V.Float (V.to_float sums.(g) /. float_of_int nonnull.(g))))
      | E.Min | E.Max -> (
          let sign = if fn = E.Min then 1 else -1 in
          (* the best row per group so far, -1 before the first *)
          let best = Array.make ngroups (-1) in
          match c.C.data with
          | C.Ints a ->
              best_ints sign n gids gm a mask best;
              { C.data = C.Ints (pick_ints a best); nulls }
          | C.Dates a ->
              best_ints sign n gids gm a mask best;
              { C.data = C.Dates (pick_ints a best); nulls }
          | C.Dict (codes, dict) ->
              best_dict sign n gids gm codes dict mask best;
              { C.data = C.Dict (pick_ints codes best, dict); nulls }
          | C.Floats a ->
              best_floats sign n gids gm a mask best;
              { C.data = C.Floats (pick_floats a best); nulls }
          | _ ->
              for i = 0 to n - 1 do
                if not (C.is_null c i) then begin
                  let g = BA1.unsafe_get gids (i land gm) in
                  let b = best.(g) in
                  if b < 0 || sign * V.compare (C.get c i) (C.get c b) < 0 then best.(g) <- i
                end
              done;
              boxed (fun g -> if best.(g) < 0 then V.Null else C.get c best.(g))))

let exec_group ~(child : B.quant -> C.batch) (grp : B.group_body) : C.batch =
  let cb = child grp.B.grp_quant in
  let n = cb.C.nrows in
  let col name = cb.C.cols.(batch_col_index cb name) in
  let union_cols = B.grouping_union grp.B.grp_grouping in
  let out_names = union_cols @ List.map fst grp.B.grp_aggs in
  let agg_specs =
    List.map (fun (_, { B.agg; arg }) -> (agg, Option.map col arg)) grp.B.grp_aggs
  in
  Obs.Metrics.add x_batch_rows n;
  (* every grouping set packs its keys from the same columns: each
     column's bounds are scanned once, by its first set *)
  let known = ref [] in
  let bounds (c : C.t) (a : C.ints) =
    match List.assq_opt a !known with
    | Some b -> b
    | None ->
        let b = C.int_bounds n a c.C.nulls in
        known := (a, b) :: !known;
        b
  in
  (* one grouping set's rows: a column per output column *)
  let cuboid set : C.t list * int =
    let gids, gm, firsts, ngroups =
      match set with
      | [] ->
          (* a global aggregate: one group, also over no rows, and no key
             to gather from a first row *)
          let zero = C.scratch_ints 1 in
          BA1.unsafe_set zero 0 0;
          (zero, 0, zero, 1)
      | _ ->
          let gids, firsts, ngroups = group_rows ~bounds n (List.map col set) in
          (gids, -1, firsts, ngroups)
    in
    let counts = Array.make ngroups 0 in
    for i = 0 to n - 1 do
      let g = BA1.unsafe_get gids (i land gm) in
      Array.unsafe_set counts g (Array.unsafe_get counts g + 1)
    done;
    let key_vals =
      List.map
        (fun c ->
          if List.mem c set then
            (* each group's key is its first row's *)
            let k = C.gather (col c) firsts ngroups in
            match k.C.data with C.Boxed a -> C.of_values a | _ -> k
          else all_null ngroups)
        union_cols
    in
    let agg_vals =
      List.map
        (fun (agg, arg) ->
          let arg = if agg.E.distinct then Option.map (mask_repeats n gids gm) arg else arg in
          fold_agg n gids gm ngroups agg arg counts)
        agg_specs
    in
    (key_vals @ agg_vals, ngroups)
  in
  let pieces = List.map cuboid (B.grouping_sets grp.B.grp_grouping) in
  let out_cols =
    List.mapi
      (fun ci _ -> C.concat (List.map (fun (cols, _) -> List.nth cols ci) pieces))
      out_names
  in
  {
    C.names = Array.of_list out_names;
    cols = Array.of_list out_cols;
    nrows = List.fold_left (fun acc (_, k) -> acc + k) 0 pieces;
  }

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
      cols = Array.init arity (fun j -> C.concat (List.map (fun b -> b.C.cols.(j)) branches));
      nrows = List.fold_left (fun acc b -> acc + b.C.nrows) 0 branches;
    }
  in
  Obs.Metrics.add x_batch_rows result.C.nrows;
  result
