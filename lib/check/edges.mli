(** The checker's own edge decoder.

    The scheduler reads the edges the CFG caches
    ({!Gis_ir.Cfg.successors}); the checker decodes every terminator's
    labels itself, so that it shares no edge code with the scheduler
    and a stale cache cannot hide the violation it would cause. *)

val succs : Gis_ir.Cfg.t -> int -> int list
(** A block's successor ids, fallthrough first. Raises
    [Invalid_argument] on a non-branch terminator or an unknown label. *)

val preds : Gis_ir.Cfg.t -> int list array
(** Each block's predecessors, by ascending id, a block once per edge. *)
