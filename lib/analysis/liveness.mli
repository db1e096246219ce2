(** Live-variable analysis over a whole CFG.

    The global scheduler needs the registers *live on exit* from each
    basic block to decide whether a speculative motion is safe (paper
    Section 5.3): an instruction must not be moved into block [B] if it
    writes a register live on exit from [B]. The paper notes the
    information "has to be updated dynamically": the scheduler computes
    it once per pass and, after each burst of motions, {!update}s only
    the blocks the motions rewrote.

    Registers are numbered densely per {!compute}, and each block's
    upward-exposed uses, definitions, live-in and live-out sets are
    bitset rows over those numbers, so no array is sized by a register
    id. The fixpoint runs along the CFG's own edges
    ({!Gis_ir.Cfg.successors}). *)

type t

val compute : Gis_ir.Cfg.t -> t
(** Backward iterative dataflow to a fixpoint; back edges included. *)

val update : t -> Gis_ir.Cfg.t -> blocks:int list -> unit
(** [update t cfg ~blocks] brings [t] up to date after the bodies or
    terminator operands of [blocks] changed. It re-scans only those
    blocks, then re-solves only the registers whose upward-exposed use
    or definition changed in one of them. Each such register is cleared
    backward from the blocks where it changed, over the blocks where it
    was live, and then re-derived and propagated from the blocks around
    the cleared part, so an update costs what the register's live range
    there costs, not the procedure. Liveness is solved per register, so
    the result is exactly what {!compute} on [cfg] would give —
    provided every changed block is listed and the CFG's edges, layout
    and block count are those [t] was computed on. Raises
    [Invalid_argument] if the block count changed. *)

val iter_live_in : t -> int -> (Gis_ir.Reg.t -> unit) -> unit
val iter_live_out : t -> int -> (Gis_ir.Reg.t -> unit) -> unit
(** The registers live into, or out of, a block, in numbering order. *)

val mem_before_terminator : t -> Gis_ir.Cfg.t -> int -> Gis_ir.Reg.t -> bool
(** [mem_before_terminator t cfg id r]: is [r] live immediately before
    block [id]'s terminator? That is what a motion *into* the block
    (which always places code before the terminator) must not clobber:
    live-out plus the terminator's own uses. *)

val count_before_terminator :
  t -> Gis_ir.Cfg.t -> int -> Gis_ir.Reg.cls -> int
(** The number of registers of one class live immediately before the
    block's terminator. *)
