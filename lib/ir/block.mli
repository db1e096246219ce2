(** Basic blocks.

    A block is a label, a vector of non-branch body instructions, and a
    single terminator (conditional branch, jump, or halt). Successor
    edges are derived from the terminator, so the CFG can never disagree
    with the code. Body vectors are mutable because the global scheduler
    physically moves instructions between blocks.

    The record is private: only {!Cfg} makes blocks and writes their
    terminators, through {!Cfg.set_term}, which keeps its edges current. *)

type t = Block_rep.t = private {
  id : int;  (** dense index within the owning CFG *)
  label : Label.t;
  body : Instr.t Gis_util.Vec.t;
  mutable term : Instr.t;  (** written only by {!Cfg.set_term} *)
}

val successor_labels : t -> Label.t list
(** Successors in edge order: for a conditional branch, fallthrough
    first, then taken target; for a jump, its target; for halt, none. *)

val instr_count : t -> int
(** Body instructions plus the terminator. *)

val instrs : t -> Instr.t list
(** Body in order, terminator last. *)

val iter : (Instr.t -> unit) -> t -> unit
(** {!instrs} without building the list. *)

val mem_uid : t -> int -> bool
(** Does the block contain the instruction with this uid (body or
    terminator)? *)

val find_body_index : t -> uid:int -> int option

val remove_by_uid : t -> uid:int -> Instr.t
(** Remove a body instruction by uid. Raises [Not_found] if absent or if
    the uid names the terminator. *)

val pp : t Fmt.t
