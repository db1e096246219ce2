(** Independent dependence reconstruction for translation validation.

    The checker never trusts the scheduler's own DDG: it rebuilds the
    flow/anti/output/memory dependences of a program from scratch (the
    paper's Section 4 dependence rules, mirroring [lib/ddg]'s
    disambiguation) over a whole-CFG forward view with DFS back edges
    masked, and offers an order oracle over a second (transformed)
    program so a stage's output can be checked against its input. *)

open Gis_ir

type kind = Flow | Anti | Output | Mem

val pp_kind : kind Fmt.t

type dep = {
  d_src : int;  (** uid that must come first *)
  d_dst : int;  (** uid that must come second *)
  d_kind : kind;
  d_reg : Reg.t option;  (** the register for a data dependence *)
}

type program
(** A CFG indexed for checking: forward view (back edges masked),
    view-node reachability, uid -> (block, position) sites, and lazy
    reaching definitions. *)

val of_cfg : ?disambig:bool -> Cfg.t -> program
(** [disambig] (default [true]) enables the symbolic-address memory
    disambiguation during {!reconstruct}: Mem pairs whose bases
    {!Addrcheck} proves equal up to a known delta, with disjoint
    access ranges, and pairs of different memory families, produce no
    dependence. The analysis is the checker's own — it never consults
    the scheduler's [Gis_analysis.Symaddr] — so every edge the
    scheduler pruned is re-proved from this stage's input program. *)

val back_edges : Cfg.t -> (int * int) list
(** DFS back edges from the entry (block-id pairs) — the edges masked to
    obtain the forward view. *)

val reaching : program -> Gis_analysis.Reaching.t

val uids : program -> Gis_util.Ints.Int_set.t
(** Uids of every instruction in layout blocks (bodies + terminators). *)

val instr : program -> int -> Instr.t option
val block_label_of_uid : program -> int -> Label.t option
val ordered : program -> src:int -> dst:int -> bool
(** Is [src] guaranteed to execute before [dst] on every forward path
    where both execute? True when they share a block with [src] earlier,
    or when [src]'s block strictly reaches [dst]'s block and not vice
    versa. *)

val reconstruct : program -> dep list
(** All dependences of the program: kill-sensitive intra-block scans
    plus pairwise inter-block edges over forward-reachable block pairs,
    with the same memory disambiguation as [Gis_ddg.Ddg] (memory
    families; same base register with the same scan version or single
    reaching definition, disjoint ranges; and, when [disambig] is on,
    {!Addrcheck}'s affine base deltas). *)

val still_conflicts : kind -> Instr.t -> Instr.t -> bool
(** Re-validate a reconstructed dependence against the *transformed*
    instructions: renaming during speculative motion may dissolve an
    anti/output/flow dependence, in which case the order need not be
    preserved. Memory dependences always survive. *)
