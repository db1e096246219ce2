(** Scheduling regions (paper Section 5.1).

    A region is either a loop body or the body of the procedure without
    its enclosed loops. Instructions never move out of or into a region;
    regions are scheduled innermost first. A region's *view* is a
    {!Flow.t} over the region's own blocks plus one collapsed node per
    immediately nested loop, with this region's back edges masked — so
    the view is acyclic and single-entry, ready for dominance, control
    dependence and topological traversal. *)

type node =
  | Block of int      (** CFG block id *)
  | Inner_loop of int (** index of a collapsed immediately-nested loop *)

type region = {
  id : int;
  loop : Loops.loop option;  (** [None] for the top-level region *)
  entry_block : int;
  own_blocks : Gis_util.Ints.Int_set.t;
      (** blocks belonging to this region and to no nested loop *)
  nesting : int;  (** 0 for the top level, matching loop depth otherwise *)
}

type t

val compute : Gis_ir.Cfg.t -> t

val regions : t -> region list
(** Innermost first — the scheduling order. Includes the top-level
    region last. *)

type view = {
  flow : Flow.t;
  nodes : node array;  (** view node index -> node *)
  edge_label : int -> int -> Gis_ir.Cfg.edge_kind;
  block_node : int -> int option;  (** CFG block id -> view node index *)
}

val view : Gis_ir.Cfg.t -> t -> region -> view
(** Raises [Invalid_argument] if the region's graph is not single-entry
    acyclic after masking (i.e. the CFG is irreducible there). *)

val summary_blocks : t -> loop_index:int -> Gis_util.Ints.Int_set.t
(** All CFG blocks inside the given loop (including deeper nests) — the
    blocks summarized by an [Inner_loop] node. *)
