(** Memory disambiguation (paper Section 4.2, fourth dependence rule).

    Two memory-touching instructions must be ordered unless it is proven
    they address different locations. The proof here is syntactic, in
    the spirit of the XL compiler: two references are independent when
    they use the same base register holding the same *value* (the same
    reaching definition during a single block scan) with accesses that
    cannot overlap, or when they touch different memory families
    altogether. Loads never conflict with loads. Calls conflict with
    every memory reference.

    Stronger proofs — full affine address arithmetic across blocks —
    live in {!Gis_analysis.Symaddr} (scheduler side) and
    [Gis_check.Addrcheck] (checker side); both reduce to
    {!ranges_disjoint} once base equality is established. *)

type family =
  | Int_mem  (** word accesses: GPR/CR loads and stores *)
  | Float_mem  (** doubleword accesses: FPR loads and stores *)
      (** Which architectural memory the access touches — the simulator
          keeps integer and floating-point memory as disjoint address
          spaces (its [mem]/[fmem] tables), so accesses of different
          families never alias regardless of address. *)

type ref_info = {
  base : Gis_ir.Reg.t;
  version : int;
      (** uid of the base register's defining instruction at address
          computation time, or [-1] when defined before the scan began
          (unknown/external); two refs disambiguate positionally only
          when versions are equal and non-conflicting offsets *)
  offset : int;
  width : int;
      (** bytes accessed — derived from the access's {!family}, i.e.
          from which memory the instruction moves data, not from the
          base register *)
  family : family;
}

type access =
  | Load_ref of ref_info
  | Store_ref of ref_info
  | Call_ref  (** conservatively touches everything *)

val access_of_instr :
  version_of:(Gis_ir.Reg.t -> int) -> Gis_ir.Instr.t -> access option
(** [None] when the instruction does not touch memory. [version_of]
    supplies the current value-version of the base register. *)

val conflict : access -> access -> bool
(** Must the second access stay ordered after the first? *)

val baseline_conflict : access -> access -> bool
(** The family-blind version rule alone — what {!conflict} answered
    before memory families existed. Kept only so the DDG builders can
    account how many Mem edges each refinement layer pruned; never use
    it to decide an edge. *)

val ranges_disjoint : ref_info -> ref_info -> bool
(** Do the two [offset, offset+width) intervals miss each other?

    Contract: this compares offsets {e relative to the two base
    values}, so it proves disjointness only once the caller has proved
    the base values equal. Blessed callers and their proofs:
    - the intra-block scan ({!conflict}): same register at the same
      scan version;
    - the inter-block disambiguators in [Gis_ddg.Ddg] and
      [Gis_check.Deps]: same register with the same single reaching
      definition;
    - the symbolic-address passes ([Gis_analysis.Symaddr] /
      [Gis_check.Addrcheck]): same affine origin, with the proven
      base delta folded into one side's offsets before the range
      test.
    Any other caller must bring its own base-equality proof. *)
