(** The QGM graph: an arena of boxes with a designated root.

    Graphs are immutable; construction threads the graph value. ORDER BY and
    LIMIT are presentation properties of the whole query (irrelevant to
    matching), kept alongside the root rather than as boxes. *)

type presentation = {
  order_by : (string * bool) list;  (** root output column, ascending flag *)
  limit : int option;
}

type t

val empty : t

(** [add_box g body] allocates a fresh box id. *)
val add_box : t -> Box.body -> t * Box.box_id

(** [fresh_quant g box kind] allocates a quantifier over [box]. *)
val fresh_quant : t -> Box.box_id -> Box.quant_kind -> t * Box.quant

val set_root : t -> Box.box_id -> t
val root : t -> Box.box_id
val box : t -> Box.box_id -> Box.box
val box_opt : t -> Box.box_id -> Box.box option

(** Replace a box's body in place (same id). *)
val update_box : t -> Box.box_id -> Box.body -> t

val set_presentation : t -> presentation -> t
val presentation : t -> presentation

(** All box ids, ascending. *)
val box_ids : t -> Box.box_id list

(** Boxes reachable from the root (set of ids). *)
val reachable : t -> Box.box_id -> Box.box_id list

(** [parents g] maps each box to the boxes that consume it. *)
val parents : t -> (Box.box_id, Box.box_id list) Hashtbl.t

(** Leaf (base-table) boxes reachable from the given root. *)
val base_leaves : t -> Box.box_id -> Box.box_id list

(** Debug dump. *)
val pp : Format.formatter -> t -> unit
