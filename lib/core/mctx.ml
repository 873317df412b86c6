(* The matching context: the two graphs, the catalog, and the memo table of
   box-pair match results. The navigator and the recursive match function
   (paper section 3) share this. A memo entry is the pair's whole answer:
   its match and the static certificate of that match's region equality
   ([Prove.Proved], or [Unknown] with the reason). *)

type t = {
  cat : Catalog.t;
  qg : Qgm.Graph.t;  (* query graph: subsumees *)
  ag : Qgm.Graph.t;  (* AST graph: subsumers *)
  memo : (int * int, (Mtypes.result * Prove.status) option) Hashtbl.t;
  trace : Obs.Trace.t option;  (* when set, spans and rejections recorded *)
  budget : Govern.Budget.t option;  (* when set, match calls are metered *)
  config : Config.t;  (* feature switches (ablations only) *)
}

let create ?trace ?budget ?(config = Config.default) cat ~query ~ast =
  { cat; qg = query; ag = ast; memo = Hashtbl.create 64; trace; budget;
    config }

(* Record the typed reason why the current candidate pair was rejected.
   Diagnostics only — never consulted by the algorithm. *)
let reject ctx reason = Obs.Trace.reject ctx.trace ~kind:"check" ~label:"" reason

(* A pairing of subsumee children with subsumer children (section 4's
   terminology): matched pairs with the child pair's answer, rejoin
   children (subsumee-only), and extra children (subsumer-only). *)
type assignment = {
  pairs :
    (Qgm.Box.quant * Qgm.Box.quant * (Mtypes.result * Prove.status)) list;
  rejoins : Qgm.Box.quant list;
  extras : Qgm.Box.quant list;
}
