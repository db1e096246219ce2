(** Live-variable analysis over a whole CFG.

    The global scheduler needs the registers *live on exit* from each
    basic block to decide whether a speculative motion is safe (paper
    Section 5.3): an instruction must not be moved into block [B] if it
    writes a register live on exit from [B]. The paper notes the
    information "has to be updated dynamically": the scheduler computes
    it once per pass and, after each motion, {!update}s only the blocks
    the motion rewrote.

    Only blocks in {!Gis_ir.Cfg.layout} take part: a detached block has
    empty live sets and contributes nothing to its layout neighbours. *)

type t

val compute : Gis_ir.Cfg.t -> t
(** Backward iterative dataflow to a fixpoint; back edges included. *)

val update : t -> Gis_ir.Cfg.t -> blocks:int list -> unit
(** [update t cfg ~blocks] brings [t] up to date after the bodies or
    terminator operands of [blocks] changed. It re-scans only those
    blocks, then re-solves only the registers whose upward-exposed use
    or definition changed in one of them: each is cleared everywhere and
    propagated backward from the blocks that use it, stopping at blocks
    that define it. Liveness is solved per register, so the result is
    exactly what {!compute} on [cfg] would give — provided every changed
    block is listed and the CFG's edges, layout and block count are
    those [t] was computed on. Raises [Invalid_argument] if the block
    count changed. *)

val live_in : t -> int -> Gis_ir.Reg.Set.t
val live_out : t -> int -> Gis_ir.Reg.Set.t

val live_before_terminator : t -> Gis_ir.Cfg.t -> int -> Gis_ir.Reg.Set.t
(** Registers live immediately before the block's terminator — what a
    motion *into* the block (which always places code before the
    terminator) must not clobber. Equals [live_out] plus the
    terminator's own uses. *)

val pp : t Fmt.t
