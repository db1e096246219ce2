(** Reaching definitions and use-def / def-use chains.

    Used by the scheduler's renaming transformation: renaming the
    destination of a moved definition is only sound when every use that
    definition reaches is reached by *no other* definition (paper
    Section 5.3 / Figure 6 — `cr6` becomes `cr5` precisely because `I13`
    is reached only by `I12`'s compare). Registers that may be defined
    before the procedure (parameters) get a synthetic {!External}
    definition site at the entry.

    Two ways to ask. {!compute} solves the whole procedure at once and
    answers every chain; the checker ([Deps], [Check]), [Webs] and
    [Lint] use it. {!Query} answers one use, or one definition's uses,
    by walking the CFG from it; the scheduler ([Ddg]'s cross-block base
    proof and [Global_sched]'s rename check) uses it, so the checker
    shares no reaching-definitions code path with the scheduler.

    Edges are the CFG's own ({!Gis_ir.Cfg.successors}). As
    {!Gis_ir.Validate} checks, uids are assumed distinct and no
    instruction defines a register twice. *)

type site =
  | Def of int  (** uid of the defining instruction *)
  | External    (** defined before the procedure entry *)

val pp_site : site Fmt.t
val equal_site : site -> site -> bool

type t

val compute : Gis_ir.Cfg.t -> t
(** Forward iterative dataflow over all definition sites; back edges
    included, so definitions reaching around a loop are visible.

    Allocates in proportion to the CFG's instructions, operands and
    definition sites, never to its uids or register ids: instructions,
    operand slots and registers are numbered densely per call, with one
    uid -> number table for the queries below. Each register's
    definition sites take one contiguous range of the dataflow bitsets,
    so a definition kills a range and a use's chain is a scan of its
    register's range. The chains are recorded in arrays indexed by
    operand slot (uses) and by site (definitions). *)

val defs_of_use : t -> uid:int -> reg:Gis_ir.Reg.t -> site list
(** Definition sites reaching the given use operand, each once. Within
    the list, a register's definitions come last, the latest-visited
    first (layout order, then position), and its {!External} site
    before them. Raises [Invalid_argument] if the instruction does not
    use [reg]. *)

val uses_of_def : t -> uid:int -> reg:Gis_ir.Reg.t -> int list
(** Uids of instructions with a use of [reg] reached by this
    definition, each once, the last found first: the uses are visited
    by block id, then position. *)

val sole_def_of_all_uses : t -> uid:int -> reg:Gis_ir.Reg.t -> int list option
(** [Some uses] when every use reached by definition [uid] of [reg] has
    that definition as its *only* reaching definition — the renaming
    safety condition; [None] otherwise. *)

(** Demand-driven reaching definitions: each answer walks the CFG from
    the instruction asked about, reading the blocks' current bodies, and
    equals (as a set) what {!compute} on the same CFG would answer. *)
module Query : sig
  type t

  val create : Gis_ir.Cfg.t -> t
  (** A query on [cfg]. It reads the CFG's current edges and bodies at
      every answer and records only the block count, which must not
      change while [t] is in use. So one query stays valid across any
      number of motions, which move instructions between bodies and
      leave edges and blocks alone: a global scheduling pass makes one
      and shares it across every region's DDG build and rename
      check. *)

  val defs_of_use :
    t -> block:int -> uid:int -> reg:Gis_ir.Reg.t -> site list
  (** Definition sites reaching the use of [reg] by instruction [uid] in
      [block], each once: walks backward to the last definition of
      [reg] on each path; reaching the entry's top adds {!External}.
      Raises [Invalid_argument] if [block] holds no instruction [uid] or
      it does not use [reg]. *)

  val uses_of_def : t -> block:int -> uid:int -> reg:Gis_ir.Reg.t -> int list
  (** Uids of the instructions whose use of [reg] the definition [uid]
      in [block] reaches, each once: walks forward to the next
      definition on each path. Raises [Invalid_argument] if [block]
      holds no instruction [uid] or it does not define [reg]. *)

  val sole_def_of_all_uses :
    t -> block:int -> uid:int -> reg:Gis_ir.Reg.t -> (int * int) list option
  (** {!Reaching.sole_def_of_all_uses} by query, each use paired with
      the block holding it: the definition's uses forward, then each
      use's reaching definitions backward. *)
end
