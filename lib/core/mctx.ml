(* The matching context: the two graphs, the catalog, and the memo table of
   box-pair match results. The navigator and the recursive match function
   (paper section 3) share this. *)

type t = {
  cat : Catalog.t;
  qg : Qgm.Graph.t;  (* query graph: subsumees *)
  ag : Qgm.Graph.t;  (* AST graph: subsumers *)
  memo : (int * int, Mtypes.result option) Hashtbl.t;
  trace : Obs.Trace.t option;  (* when set, spans and rejections recorded *)
  budget : Govern.Budget.t option;  (* when set, match calls are metered *)
  config : Config.t;  (* feature switches (ablations only) *)
  (* Static-proof ledger: per successful (subsumee, subsumer) pair, whether
     the rewrite region equality was certified by the prover.  A match
     pattern deposits its certificate in [pending_proof]; [match_boxes]
     moves it into [proofs] keyed like the memo table. *)
  proofs : (int * int, Prove.status) Hashtbl.t;
  mutable pending_proof : Prove.status option;
}

let create ?trace ?budget ?(config = Config.default) cat ~query ~ast =
  { cat; qg = query; ag = ast; memo = Hashtbl.create 64; trace; budget;
    config; proofs = Hashtbl.create 64; pending_proof = None }

(* Record the typed reason why the current candidate pair was rejected.
   Diagnostics only — never consulted by the algorithm. *)
let reject ctx reason = Obs.Trace.reject ctx.trace ~kind:"check" ~label:"" reason

(* A pairing of subsumee children with subsumer children (section 4's
   terminology): matched pairs, rejoin children (subsumee-only), and extra
   children (subsumer-only). *)
type assignment = {
  pairs : (Qgm.Box.quant * Qgm.Box.quant * Mtypes.result) list;
  rejoins : Qgm.Box.quant list;
  extras : Qgm.Box.quant list;
}
