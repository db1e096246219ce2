(** Whole-procedure symbolic address analysis.

    A forward abstract interpretation over the CFG computing, at every
    memory access, the abstract value of the access's base register in
    the flat lattice

    {v Const k  |  Sym (origin, k)  |  Top v}

    where [origin] names one definition instance: either a specific
    defining instruction (an opaque def — a load result, a call result,
    a non-affine arithmetic result) or the register's value at procedure
    entry. [Sym (o, k)] means "the value most recently produced by [o],
    plus [k]"; the affine transfer tracks [Load_imm], [Move], and
    add/sub-with-a-known-constant [Binop]s (including the base
    post-increment of [update] loads/stores), every other definition
    starts a fresh origin, and CFG merges join pointwise with
    equality-or-Top. Only the registers in the backward affine slice of
    the load/store bases are tracked; no other register can change a
    base value.

    The fixpoint sweeps the block layout in order until a sweep changes
    no block entry, as a full re-join and re-transfer of every block at
    every sweep would; each sweep only skips the evaluations that cannot
    change anything. Environments hold only the slice positions live at
    each block boundary: a block's entry covers its live-in positions
    and its exit every position live into a successor, as sorted
    per-block rows, so storage and work grow with the live cells, not
    with blocks × slice. Liveness comes from the analysis's own decoded
    operations (reads: move and shift sources, add/sub operands, access
    bases; definitions: destinations and update bases). A dead position
    is overwritten before any read on every path, so no live value and
    no recorded base value depends on it. A block's entry is re-joined
    only at the live positions where some predecessor's exit changed
    since the block's last visit (at every live position when a
    predecessor was reached for the first time), its body is
    re-transferred only when its entry changed, and only the exit
    positions that changed are passed on, to the successors where they
    are live. Every live value the sweep
    computes is the one the full re-join computes at the same step, so
    the layout-order fixpoint of the non-monotone transfer is unchanged.

    Soundness of origin comparison: a point maps a register to
    [Sym (o, k)] only when {e every} path to it passes through [o] with
    only affine adjustments since. Two accesses inside one traversal of
    an acyclic forward view therefore read the {e same} dynamic instance
    of [o] — if a redefinition (a second execution of [o], or any other
    def) could intervene on some path, the join at the second access
    would have produced [Top] or a different origin. Since the DDG keeps
    all register dependences, reordering two accesses never changes the
    base values they read, so same-origin bases with disjoint
    [offset, offset+width) ranges can never touch the same location —
    the paper's Section 4.2 fourth rule, upgraded from "same base
    register, same scan version" to full affine address arithmetic.

    The static checker never consults this module: [lib/check] carries
    its own independent re-implementation ({!Gis_check.Addrcheck}) so
    that every edge pruned here is re-proved from the stage's input at
    verification time. *)

type origin
(** A definition instance: an instruction uid together with the defined
    register, or the register's procedure-entry value. *)

val pp_origin : origin Fmt.t

type value =
  | Const of int
  | Sym of { origin : origin; offset : int }
  | Top

val pp_value : value Fmt.t

type t

val compute : Gis_ir.Cfg.t -> t
(** Run the fixpoint and record, for every [Load]/[Store] in the graph,
    the abstract value of its base register at its own program point
    (before the [update] post-increment, matching the effective-address
    computation). *)

val base_value : t -> int -> value
(** [base_value t uid] is the abstract base value of the memory access
    with instruction uid [uid]; [Top] when [uid] is not a recorded
    load or store. *)

val delta : t -> a:int -> b:int -> int option
(** [delta t ~a ~b] is [Some d] when the analysis proves that at every
    joint execution the base value of access [b] equals the base value
    of access [a] plus [d] — both [Const], or both [Sym] on the same
    origin. [None] otherwise. This is the one blessed entry point for
    {!Gis_ddg.Alias.ranges_disjoint}'s inter-block contract: callers
    shift [b]'s offsets by [d] and compare ranges. *)

val overclaim_for_testing : bool ref
(** Fault-injection hook for the checker's and the differential
    fuzzer's self-tests: when set, {!delta} fabricates a delta for
    pairs it cannot prove (differing origins, [Top]) — the classic
    unsound "syntactically different bases never alias" bug. The
    checker-side re-implementation does not consult this module, so a
    schedule built on the over-claim must be rejected at verification
    time. Never set outside tests. *)
