(** The navigator (paper section 3): drives the match function bottom-up
    over the query and AST graphs until the AST root is matched with one or
    more query boxes.

    The implementation realizes the bottom-up discipline through memoized
    recursion: judging a pair first judges all child pair combinations, so
    the set of visited pairs and their ordering coincide with the paper's
    worklist formulation. *)

type site = {
  site_box : Qgm.Box.box_id;       (** matched query (subsumee) box *)
  site_result : Mtypes.result;     (** compensation against the AST root *)
  site_proof : Prove.status;
      (** static certificate: [Proved] when the prover verified the rewrite
          region equality at match time, [Unknown why] otherwise *)
}

(** All query boxes that match the AST's root box. When [trace] is given,
    a [navigate] span with per-pair match spans and typed rejection reasons
    is recorded in it (diagnostics for EXPLAIN REWRITE and [\trace]).
    When [budget] is given, every match-function invocation is metered
    against it and may raise {!Govern.Budget.Budget_exhausted}. [config]
    (default {!Config.default}) turns matching features off for the
    ablations; the planner always uses the default. *)
val find_matches :
  ?trace:Obs.Trace.t -> ?budget:Govern.Budget.t -> ?config:Config.t ->
  Catalog.t ->
  query:Qgm.Graph.t -> ast:Qgm.Graph.t ->
  site list

(** Convenience: does any query box match the AST root? *)
val matches : Catalog.t -> query:Qgm.Graph.t -> ast:Qgm.Graph.t -> bool
