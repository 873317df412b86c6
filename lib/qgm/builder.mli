(** Semantic analysis: SQL abstract syntax to QGM.

    Performs name resolution against the catalog: every column reference
    is written in the spelling where its column is declared (the catalog
    column, or the output name of the child box), and every base table in
    its catalog spelling, so the layers below compare names with [=].
    Output names keep the user's spelling. Also desugars [BETWEEN] /
    [IN]-lists, extracts aggregates and grouping expressions into the
    SELECT / GROUP BY / SELECT box triple the paper describes (Figure 3),
    canonicalizes ROLLUP / CUBE / GROUPING SETS into a single
    grouping-sets form (section 5), and attaches non-correlated scalar
    subqueries as scalar quantifiers.

    Correlated subqueries are rejected (paper footnote 1): a subquery is
    resolved only against its own FROM bindings, so an outer reference
    surfaces as an unknown-column error. *)

exception Sem_error of string

(** [build cat q] elaborates query [q] into a QGM graph whose root produces
    the query result. Raises {!Sem_error} on resolution or shape errors. *)
val build : Catalog.t -> Sqlsyn.Ast.query -> Graph.t

(** Output column names of the graph root, in SELECT-list order. *)
val output_columns : Graph.t -> string list
