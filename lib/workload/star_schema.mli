(** The paper's sample database (Figure 1): a credit-card-transactions star
    schema with fact table Trans and dimensions PGroup (product), Loc
    (location: city/state/country levels, denormalized), and the account
    hierarchy Acct -> Cust. Time is encoded in Trans.date and extracted
    with year()/month()/day().

    All foreign keys carry declared RI constraints, which the matcher uses
    to prove extra joins lossless. *)

val catalog : unit -> Catalog.t

(** The same schema as executable DDL (for the CLI and examples). *)
val ddl : string

type params = {
  n_pgroups : int;
  n_locs : int;
  n_custs : int;
  accts_per_cust : int;
  years : int list;                  (** e.g. [[1994; 1995; 1996]] *)
  trans_per_acct_year : int;         (** mean; actual count varies +-50% *)
  home_city_bias : float;            (** fraction of purchases in home city *)
  seed : int;
}

(** Defaults matching the paper's narrative: a few hundred transactions per
    account-year, almost all in the account's home city, so that AST1 is
    roughly two orders of magnitude smaller than Trans. *)
val default_params : params

(** [scaled n] multiplies the number of customers by [n] (n >= 1). *)
val scaled : int -> params

(** Generate table contents as typed column batches; deterministic in
    [params.seed]. [Trans] is written straight into typed columns and never
    exists as boxed rows. *)
val generate_batches : params -> (string * Engine.Column.batch) list

(** The same contents as relations: {!generate_batches}, boxed. *)
val generate : params -> (string * Data.Relation.t) list
