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
    view-node reachability as bitset rows, the layout's instructions
    numbered densely in layout order with their blocks and positions,
    one uid -> number table, and lazy reaching definitions. Nothing in
    it is sized by a uid or a register id. *)

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

val uids : program -> int array
(** Uids of every instruction in layout blocks (bodies + terminators),
    ascending. *)

val mem : program -> int -> bool
(** Is the uid an instruction of a layout block? *)

val instr : program -> int -> Instr.t option
val block_label_of_uid : program -> int -> Label.t option

type verdict =
  | Held  (** still ordered, or dissolved by renaming *)
  | Violated
  | Gone  (** an endpoint is not in the program *)

val check : program -> post:program -> dissolve:bool -> int * bool
(** Check every dependence of {!reconstruct}, reconstructed from a
    stage's input, against [post], the stage's output: the number whose
    endpoints both survive, and whether any is {!Violated}. The
    verdicts are taken inside the scan that finds the dependences, on
    instruction numbers, so no {!dep} is built. *)

val verdict : program -> dissolve:bool -> dep -> verdict
(** Does a dependence reconstructed from a stage's input still hold in
    this program, the stage's output? {!Gone} when either endpoint is
    missing. Otherwise {!Held} when the source is guaranteed to execute
    before the destination on every forward path where both execute
    (same block with the source earlier, or the source's block strictly
    reaches the destination's and not vice versa), or, with
    [dissolve], when renaming dissolved the dependence: the transformed
    instructions no longer define and read (flow), read and define
    (anti) or both define (output) a common register. Memory
    dependences never dissolve. *)

val reconstruct : program -> dep list
(** All dependences of the program: kill-sensitive intra-block scans
    plus inter-block edges over forward-reachable block pairs, with the
    same memory disambiguation as [Gis_ddg.Ddg] (memory families; same
    base register with the same scan version or single reaching
    definition, disjoint ranges; and, when [disambig] is on,
    {!Addrcheck}'s affine base deltas).

    The inter-block edges come from an index join instead of a test of
    every instruction pair against every register: each register's def
    and use occurrences are indexed over the entry-reachable blocks,
    and a source instruction is joined with the occurrences of the
    registers it defines (flow and output) or uses (anti), keeping
    those in blocks its own block strictly reaches. Memory accesses are
    indexed twice, all of them and the stores plus calls; a load is
    joined with the latter only, so load/load pairs are never
    enumerated, and a call conflicts with every access. Registers are
    numbered densely per scan and each register's occurrences are one
    run of a flat array, so the scan allocates per instruction and
    register, not per dependence.

    The join is not output-sensitive. It enumerates every pair of
    occurrences that share a register, whether or not their blocks
    reach, before the reachability test; and the memory join is all
    accesses × stores and calls before disambiguation, so accesses
    proved disjoint still cost a pair each. The reachability test reads
    bitset rows quadratic in blocks.

    Order: the inter-block edges first, by descending source block,
    destination block, source position, destination position and rule
    (a source's defined registers in order, flow before output, then
    its used registers, then memory), with blocks in layout order; then
    the intra-block edges, blocks descending, each block's newest
    first. That is the reverse of a pairwise scan over every block
    pair, and the list is the one such a scan builds, element for
    element. *)
