(** Canonical QGM fingerprints for plan caching.

    Two graphs with the same fingerprint must be plan-interchangeable: a
    rewrite chosen for one is a correct plan for the other, producing the
    same output columns in the same order. The canonical form therefore
    alpha-renames quantifiers (per-box positional indices, so builder
    counters never leak into the key), normalizes and *sorts* predicates
    (WHERE is an order-free conjunction), and keeps everything whose order
    is observable — output columns, grouping keys, UNION branches and the
    presentation (ORDER BY / LIMIT) — exactly as written. Table and column
    references arrive in their declared spelling (the builder resolves
    them), and output display names are preserved verbatim. *)

(** The canonical serialized form (stable across processes; useful for
    debugging cache behaviour). *)
val canonical : Graph.t -> string

(** MD5 hex digest of {!canonical}: the exact fingerprint. Two queries
    that differ in any literal differ here. *)
val of_graph : Graph.t -> string

type keys = {
  exact : string;  (** {!of_graph} *)
  template : string;
      (** the digest of the canonical form with every literal that is a
          direct operand of [= <> < <= > >=] in a WHERE or HAVING
          predicate (BETWEEN bounds and IN members included) replaced by
          a slot naming its type ([?int], [?float], [?date], [?str],
          [?bool], [?null]). Literals in outputs, arithmetic, function
          arguments, CASE arms and LIMIT stay in the key. Queries that
          differ only in such comparison constants share it. *)
}

(** Both fingerprints, from one canonical walk. *)
val keys : Graph.t -> keys
