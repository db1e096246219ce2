(** Live-variable analysis over a whole CFG.

    The global scheduler needs the registers *live on exit* from each
    basic block to decide whether a speculative motion is safe (paper
    Section 5.3): an instruction must not be moved into block [B] if it
    writes a register live on exit from [B]. The paper notes the
    information "has to be updated dynamically": the scheduler drops it
    after each motion and recomputes it lazily, on the next read. *)

type t

val compute : Gis_ir.Cfg.t -> t
(** Backward iterative dataflow to a fixpoint; back edges included. *)

val live_in : t -> int -> Gis_ir.Reg.Set.t
val live_out : t -> int -> Gis_ir.Reg.Set.t

val live_before_terminator : t -> Gis_ir.Cfg.t -> int -> Gis_ir.Reg.Set.t
(** Registers live immediately before the block's terminator — what a
    motion *into* the block (which always places code before the
    terminator) must not clobber. Equals [live_out] plus the
    terminator's own uses. *)

val pp : t Fmt.t
