(** Control flow graphs.

    A CFG is a procedure: a set of basic blocks with explicit edges
    derived from the terminators, a distinguished entry block, a register
    generator and an instruction-uid generator. Blocks are identified by
    dense integer ids (their index in the block table); ids are stable —
    blocks are never renumbered in place (use {!compact} to rebuild a
    graph without unreachable blocks).

    Block *layout* (textual order, used by the pretty printer and by
    transformations that insert copied blocks "after" a loop) is tracked
    separately from block ids, since fallthrough targets are explicit.
    Every block is in the layout.

    The CFG owns its edges. {!set_term} is the one writer of a
    terminator, and {!successors} and {!predecessors} read edges decoded
    once per {!shape_version}, on the first read after it moved: a
    terminator may name a block added later if no edge is read in
    between. {!Validate.check} rejects cached edges that differ from the
    terminators. *)

type edge_kind =
  | Taken      (** the conditional branch was taken *)
  | Fallthru   (** the conditional branch fell through *)
  | Always     (** unconditional jump *)

val pp_edge_kind : edge_kind Fmt.t

type t

val create : ?reg_gen:Reg.Gen.t -> unit -> t
(** [reg_gen] lets callers pre-reserve named registers (e.g. the paper's
    r0, r12, r28...) before building the graph. *)

val regs : t -> Reg.Gen.t
val fresh_reg : t -> Reg.cls -> Reg.t
val make_instr : t -> Instr.kind -> Instr.t
val copy_instr : t -> Instr.t -> Instr.t

val add_block : t -> label:Label.t -> Block.t
(** Appends a block (initial terminator [Halt]) at the end of the
    layout. Raises [Invalid_argument] on duplicate labels. *)

val insert_block_after : t -> after:int -> label:Label.t -> Block.t
(** Like {!add_block} but placed immediately after block [after] in the
    layout. *)

val set_term : t -> int -> Instr.t -> unit
(** [set_term cfg id term] makes [term] block [id]'s terminator; it
    draws no uid. Moves {!shape_version} on unless [term] names the
    same successor labels, in the same edge order, as the terminator it
    replaces (a register rename, say). A non-branch [term] is stored as
    given, for {!Validate.check} to reject. *)

val retarget : t -> int -> f:(Label.t -> Label.t) -> unit
(** Rewrite each successor label [l] of block [id]'s terminator to
    [f l], keeping its uid, through {!set_term}. Raises
    [Invalid_argument] on a non-branch terminator. *)

val shape_version : t -> int
(** Moves on when a block is added or a terminator's successor labels
    change, and at no other write: equal versions of one CFG mean equal
    blocks and edges. *)

val set_entry : t -> int -> unit
val entry : t -> int
val num_blocks : t -> int
val block : t -> int -> Block.t
val block_of_label : t -> Label.t -> Block.t
val find_label : t -> Label.t -> int option
val layout : t -> int list
(** Block ids in textual order. *)

val layout_rank : t -> int array
(** Each block's position in {!layout}, indexed by block id. *)

val iter_blocks : (Block.t -> unit) -> t -> unit
(** In layout order. *)

val fold_blocks : ('a -> Block.t -> 'a) -> 'a -> t -> 'a

val successors : t -> int -> (int * edge_kind) list
(** Successor block ids with edge kinds; fallthrough edge first. A
    decode raises [Invalid_argument] on a non-branch terminator or an
    unknown label. *)

val edges_cached : t -> bool
(** Were the edges decoded at the current {!shape_version}? Only then
    do {!successors} and {!predecessors} read them without decoding. *)

val predecessors : t -> int -> int list
(** The predecessors of a block, by ascending id, a block once per edge
    into it. Cached as {!successors} is. *)

val instr_count : t -> int
(** Total instructions including terminators. *)

val all_instrs : t -> Instr.t list
(** In layout/program order. *)

val update_instr :
  ?block:int -> t -> uid:int -> f:(Instr.t -> Instr.t) -> bool
(** Rewrite the instruction with the given uid in place (body or
    terminator), wherever it currently lives in the layout, or only in
    [block] when given. Returns false when no such instruction exists
    there. The replacement must keep the same uid. A terminator is
    replaced through {!set_term}. *)

val reachable : t -> Gis_util.Ints.Int_set.t
(** Block ids reachable from the entry. *)

val compact : t -> t
(** A fresh CFG containing only reachable blocks, with new dense ids but
    the same labels, instruction uids and register generator state. *)

val deep_copy : t -> t
(** Structural copy sharing nothing mutable with the original; labels,
    ids and uids are preserved. Used to snapshot code before scheduling
    so that baseline and scheduled versions can be compared. *)

val pp : t Fmt.t
(** Paper-style listing: labels, indented instructions; jumps to the
    lexically next block are still printed (explicitness over beauty). *)
