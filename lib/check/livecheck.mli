(** The checker's own live-variable analysis: registers live into each
    layout block of a CFG, by backward iterative dataflow over
    balanced-tree register sets. The speculation rule
    [speculation.live-off-path] reads it on each stage's output. It
    shares no code with the scheduler's {!Gis_analysis.Liveness}, so a
    defect there cannot hide the violation it would cause. A detached
    block's set is empty. *)

type t

val compute : Gis_ir.Cfg.t -> t
val live_in : t -> int -> Gis_ir.Reg.Set.t
