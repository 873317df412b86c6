(** Expression translation into the subsumer's context (paper section 6).

    A subsumee expression references subsumee QNCs, which may be complex
    expressions produced by nested blocks; before it can be compared with —
    or derived from — subsumer expressions, each QNC is replaced by its
    image through the child matches: down the child compensation levels and
    across to the matching subsumer child's output. The result is an
    expression over subsumer inputs ({!Mtypes.Rin}) and rejoin columns
    ({!Mtypes.Rj}); it may legitimately contain aggregate nodes (Figure 15's
    [sum(cnt) > 2]). *)

(** [through_comp levels e] rewrites [e] (over [Below] of the top level's
    outputs) downwards through the compensation stack, yielding an
    expression over [Below] of the subsumer-child's outputs plus [Rejoin]
    references. [None] when a referenced column is not produced. *)
val through_comp :
  Mtypes.level list -> Mtypes.cref Qgm.Expr.t -> Mtypes.cref Qgm.Expr.t option

(** [child_col result col] — the image of subsumee-child output [col]
    through a child match, over [Below] of the subsumer-child outputs. *)
val child_col : Mtypes.result -> string -> Mtypes.cref Qgm.Expr.t option

(** [to_subsumer assignment e] translates subsumee SELECT-box expression [e]
    into the subsumer's context using the child assignment: matched
    children route through {!child_col} and surface as [Rin] (subsumer
    quantifier, column); rejoin children surface as [Rj]. *)
val to_subsumer :
  Mctx.assignment -> Qgm.Box.qref Qgm.Expr.t -> Mtypes.txref Qgm.Expr.t option

(** Lift a compensation-level expression over subsumer-child outputs into
    subsumer-input space ([Below x] becomes [Rin (rq, x)]). *)
val lift_cref :
  rq:Qgm.Box.quant -> Mtypes.cref Qgm.Expr.t -> Mtypes.txref Qgm.Expr.t
