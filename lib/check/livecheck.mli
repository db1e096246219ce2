(** The checker's own live-variable analysis: registers live into each
    block of a CFG, by backward iterative dataflow over balanced-tree
    register sets along the edges {!Edges} decodes. The speculation
    rule [speculation.live-off-path] reads it on each stage's output. It
    shares no code with the scheduler's {!Gis_analysis.Liveness} or the
    CFG's edge cache, so a defect there cannot hide the violation it
    would cause. *)

type t

val compute : Gis_ir.Cfg.t -> t
val live_in : t -> int -> Gis_ir.Reg.Set.t
