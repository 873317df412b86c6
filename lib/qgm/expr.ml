type agg_fn = Count_star | Count | Sum | Avg | Min | Max

type agg = { fn : agg_fn; distinct : bool }

type 'c t =
  | Const of Data.Value.t
  | Col of 'c
  | Unop of string * 'c t
  | Binop of string * 'c t * 'c t
  | Fncall of string * 'c t list
  | Agg of agg * 'c t option
  | Is_null of 'c t * bool
  | Case of ('c t * 'c t) list * 'c t option

let agg_fn_to_string = function
  | Count_star | Count -> "COUNT"
  | Sum -> "SUM"
  | Avg -> "AVG"
  | Min -> "MIN"
  | Max -> "MAX"

let rec map_col f = function
  | Const v -> Const v
  | Col c -> Col (f c)
  | Unop (op, e) -> Unop (op, map_col f e)
  | Binop (op, a, b) -> Binop (op, map_col f a, map_col f b)
  | Fncall (g, es) -> Fncall (g, List.map (map_col f) es)
  | Agg (a, e) -> Agg (a, Option.map (map_col f) e)
  | Is_null (e, pos) -> Is_null (map_col f e, pos)
  | Case (arms, els) ->
      Case
        ( List.map (fun (c, v) -> (map_col f c, map_col f v)) arms,
          Option.map (map_col f) els )

let rec subst_col f = function
  | Const v -> Some (Const v)
  | Col c -> f c
  | Unop (op, e) -> Option.map (fun e -> Unop (op, e)) (subst_col f e)
  | Binop (op, a, b) -> (
      match (subst_col f a, subst_col f b) with
      | Some a, Some b -> Some (Binop (op, a, b))
      | _ -> None)
  | Fncall (g, es) ->
      let es' = List.filter_map (subst_col f) es in
      if List.length es' = List.length es then Some (Fncall (g, es')) else None
  | Agg (a, None) -> Some (Agg (a, None))
  | Agg (a, Some e) -> Option.map (fun e -> Agg (a, Some e)) (subst_col f e)
  | Is_null (e, pos) -> Option.map (fun e -> Is_null (e, pos)) (subst_col f e)
  | Case (arms, els) -> (
      let arms' =
        List.filter_map
          (fun (c, v) ->
            match (subst_col f c, subst_col f v) with
            | Some c, Some v -> Some (c, v)
            | _ -> None)
          arms
      in
      if List.length arms' <> List.length arms then None
      else
        match els with
        | None -> Some (Case (arms', None))
        | Some e ->
            Option.map (fun e -> Case (arms', Some e)) (subst_col f e))

let rec fold_cols f acc = function
  | Const _ -> acc
  | Col c -> f acc c
  | Unop (_, e) | Is_null (e, _) | Agg (_, Some e) -> fold_cols f acc e
  | Agg (_, None) -> acc
  | Binop (_, a, b) -> fold_cols f (fold_cols f acc a) b
  | Fncall (_, es) -> List.fold_left (fold_cols f) acc es
  | Case (arms, els) ->
      let acc =
        List.fold_left
          (fun acc (c, v) -> fold_cols f (fold_cols f acc c) v)
          acc arms
      in
      Option.fold ~none:acc ~some:(fold_cols f acc) els

let cols e = List.rev (fold_cols (fun acc c -> c :: acc) [] e)

let children = function
  | Const _ | Col _ | Agg (_, None) -> []
  | Unop (_, e) | Is_null (e, _) | Agg (_, Some e) -> [ e ]
  | Binop (_, a, b) -> [ a; b ]
  | Fncall (_, es) -> es
  | Case (arms, els) ->
      List.concat_map (fun (c, v) -> [ c; v ]) arms @ Option.to_list els

let with_children node kids =
  match (node, kids) with
  | (Const _ | Col _ | Agg (_, None)), [] -> node
  | Unop (op, _), [ e ] -> Unop (op, e)
  | Is_null (_, pos), [ e ] -> Is_null (e, pos)
  | Agg (a, Some _), [ e ] -> Agg (a, Some e)
  | Binop (op, _, _), [ a; b ] -> Binop (op, a, b)
  | Fncall (g, es), kids when List.length es = List.length kids -> Fncall (g, kids)
  | Case (arms, els), kids ->
      let rec split arms kids =
        match (arms, kids) with
        | [], rest -> ([], rest)
        | _ :: arms, c :: v :: rest ->
            let arms', rest' = split arms rest in
            ((c, v) :: arms', rest')
        | _ -> invalid_arg "Expr.with_children: arity mismatch"
      in
      let arms', rest = split arms kids in
      let els' =
        match (els, rest) with
        | None, [] -> None
        | Some _, [ e ] -> Some e
        | _ -> invalid_arg "Expr.with_children: arity mismatch"
      in
      Case (arms', els')
  | _ -> invalid_arg "Expr.with_children: arity mismatch"

let rec contains_agg = function
  | Agg _ -> true
  | e -> List.exists contains_agg (children e)

let rec exists_sub p e = p e || List.exists (exists_sub p) (children e)

(* ------------------------------------------------------------------ *)
(* Normalization                                                       *)
(* ------------------------------------------------------------------ *)

let commutative = function "+" | "*" | "AND" | "OR" | "=" | "<>" -> true | _ -> false

(* Flatten an associative-commutative chain into its operand list. *)
let rec ac_operands op e =
  match e with
  | Binop (op', a, b) when op' = op && (op = "+" || op = "*" || op = "AND" || op = "OR")
    ->
      ac_operands op a @ ac_operands op b
  | e -> [ e ]

let try_fold_const op a b =
  match (a, b) with
  | Const x, Const y -> (
      let open Data.Value in
      match op with
      | "+" -> ( try Some (Const (add x y)) with _ -> None)
      | "-" -> ( try Some (Const (sub x y)) with _ -> None)
      | "*" -> ( try Some (Const (mul x y)) with _ -> None)
      | "/" -> ( try Some (Const (div x y)) with _ -> None)
      | "=" -> Some (Const (sql_eq x y))
      | "<>" -> Some (Const (sql_neq x y))
      | "<" -> Some (Const (sql_lt x y))
      | "<=" -> Some (Const (sql_le x y))
      | "AND" -> ( try Some (Const (sql_and x y)) with _ -> None)
      | "OR" -> ( try Some (Const (sql_or x y)) with _ -> None)
      | "||" -> ( try Some (Const (concat x y)) with _ -> None)
      | _ -> None)
  | _ -> None

let rec normalize e =
  match e with
  | Const _ | Col _ | Agg (_, None) -> e
  | Unop ("-", e') -> (
      match normalize e' with
      | Const v -> ( try Const (Data.Value.neg v) with _ -> Unop ("-", Const v))
      | e' -> Unop ("-", e'))
  | Unop ("NOT", e') -> (
      match normalize e' with
      | Const v -> (
          try Const (Data.Value.sql_not v) with _ -> Unop ("NOT", Const v))
      | Unop ("NOT", inner) -> inner
      | e' -> Unop ("NOT", e'))
  | Unop (op, e') -> Unop (op, normalize e')
  | Binop (">", a, b) -> normalize (Binop ("<", b, a))
  | Binop (">=", a, b) -> normalize (Binop ("<=", b, a))
  | Binop (op, a, b) when commutative op ->
      let ops =
        if op = "=" || op = "<>" then [ normalize a; normalize b ]
        else List.map normalize (ac_operands op (Binop (op, a, b)))
      in
      let ops = List.sort Stdlib.compare ops in
      let rebuilt =
        match ops with
        | [] -> assert false
        | first :: rest ->
            List.fold_left (fun acc x -> Binop (op, acc, x)) first rest
      in
      fold_chain op rebuilt
  | Binop (op, a, b) -> (
      let a = normalize a and b = normalize b in
      match try_fold_const op a b with Some e -> e | None -> Binop (op, a, b))
  | Fncall (g, es) -> Fncall (g, List.map normalize es)
  | Agg (a, Some e') -> Agg (a, Some (normalize e'))
  | Is_null (e', pos) -> Is_null (normalize e', pos)
  | Case (arms, els) ->
      Case
        ( List.map (fun (c, v) -> (normalize c, normalize v)) arms,
          Option.map normalize els )

and fold_chain op e =
  match e with
  | Binop (op', a, b) when op' = op -> (
      let a = fold_chain op a in
      match try_fold_const op a b with Some e -> e | None -> Binop (op, a, b))
  | e -> e

let equal_norm a b = normalize a = normalize b

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let rec pp pc fmt = function
  | Const v -> Data.Value.pp fmt v
  | Col c -> pc fmt c
  | Unop (op, e) -> Format.fprintf fmt "%s(%a)" op (pp pc) e
  | Binop (op, a, b) -> Format.fprintf fmt "(%a %s %a)" (pp pc) a op (pp pc) b
  | Fncall (g, es) ->
      Format.fprintf fmt "%s(%a)" g
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ")
           (pp pc))
        es
  | Agg (a, None) ->
      Format.fprintf fmt "%s(*)" (agg_fn_to_string a.fn)
  | Agg (a, Some e) ->
      Format.fprintf fmt "%s(%s%a)" (agg_fn_to_string a.fn)
        (if a.distinct then "DISTINCT " else "")
        (pp pc) e
  | Is_null (e, pos) ->
      Format.fprintf fmt "%a IS %sNULL" (pp pc) e (if pos then "" else "NOT ")
  | Case (arms, els) ->
      Format.fprintf fmt "CASE";
      List.iter
        (fun (c, v) ->
          Format.fprintf fmt " WHEN %a THEN %a" (pp pc) c (pp pc) v)
        arms;
      (match els with
      | Some e -> Format.fprintf fmt " ELSE %a" (pp pc) e
      | None -> ());
      Format.fprintf fmt " END"

let to_string render e =
  Format.asprintf "%a" (pp (fun fmt c -> Format.pp_print_string fmt (render c))) e
