(** The checker's own symbolic address analysis.

    [Gis_analysis.Symaddr] tells the scheduler which Mem edges it may
    prune; this module re-proves those prunings at verification time
    without sharing a line of code with it. It is written against the
    same abstract-domain specification — base values in the flat
    lattice [Num k | Ref (definition instance, k) | Any], affine
    transfer through [Load_imm]/[Move]/add-sub-with-known-constant
    (including [update] post-increments), fresh instance per opaque
    definition, equality-or-Any join — but from an independent
    implementation: only the registers of the base slice (see
    {!compute}) are interned, to dense indices, block environments are
    flat arrays, and the fixpoint runs on a {!Gis_util.Fix.Worklist}
    instead of repeated layout sweeps. The two must agree in precision (a weaker
    checker would reject legal schedules); they must never share defect
    modes (hence no code sharing, and no fault-injection hook on this
    side — an over-claim injected into [Symaddr] is exactly what this
    module exists to catch). *)

type av =
  | Num of int  (** a known constant *)
  | Ref of { def : int; reg : int; add : int }
      (** the value produced by definition instance ([def], [reg]) —
          instruction uid and {!Gis_ir.Reg.hash} of the defined
          register, with [def = -1] for the register's value at
          procedure entry — plus the constant [add] *)
  | Any  (** no claim *)

type t

val compute : Gis_ir.Cfg.t -> t
(** Fixpoint over the CFG, then one recording pass noting the base
    register's abstract value at every [Load]/[Store], before any
    [update] post-increment.

    Only the backward affine slice of the load/store bases is tracked:
    every [Load]/[Store] base register, closed over the source of each
    [Move] and the register operands of each [Add]/[Sub] that defines
    a register already in the slice. Any other register reads as [Any]
    and its definitions are skipped.

    Tracking only the slice is exact. The transfer of a slice register
    reads only that instruction's [Move] source or [Add]/[Sub]
    operands, which the closure put in the slice; every other
    definition of it ([Load_imm], loads, opaque results) reads no
    register. So the slice registers' values never depend on a
    register outside the slice, and the fixpoint restricted to them
    computes the same values as one over every register. *)

val delta : t -> a:int -> b:int -> int option
(** [Some d] when access [b]'s base provably equals access [a]'s base
    plus [d] on every joint execution — both [Num], or both [Ref] of
    the same definition instance. Callers fold [d] into one side's
    offset and apply {!Gis_ddg.Alias.ranges_disjoint} per its
    contract. *)
