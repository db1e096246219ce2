(** Linear-scan register allocation over scheduled code.

    The paper schedules {e symbolic} registers and leaves allocation to
    the XL backend (Section 2), so the simulated cycle counts of the
    plain pipeline never pay for spills. This pass closes that gap: it
    builds one conservative live interval per symbolic register from
    the {!Gis_analysis.Liveness} solution (extended to block boundaries
    by live-in/live-out), runs the Poletto–Sarkar linear scan against
    the machine's physical register file, rewrites the procedure onto
    physical names with {!Gis_ir.Instr.map_regs}, and inserts spill
    code as real load/store instructions — so the simulator's delay
    model (load-use delay, store-queue forwarding) prices spills with
    no special cases.

    Spill slots live in a {e dedicated spill segment}, disjoint from
    program memory by construction: slots (word slots at [4k], doubles
    at [8k]) are addressed off a reserved frame register holding 0, and
    the simulator routes every access whose base register {e is} the
    frame register ({!field-frame}, passed as {!Gis_sim.Simulator.run}'s
    [frame]) to separate spill tables. Isolation is by base-register
    identity, never by address range — program arithmetic can compute
    any integer, so no numeric range is unreachable, but the frame
    register is never assigned to a program value. Out-of-bounds
    program loads therefore cannot alias spill slots, and
    {!Gis_sim.Simulator.observables} needs no spill filtering.

    Condition registers spill through memory via an integer transfer
    scratch (mfcr/mtcr modeling, see [Validate]'s cr<->gpr move forms):
    the reload is [l gN,slot(base); mtcr crS,gN], the store-back
    [mfcr gN,crS; st gN,slot(base)]. CR pressure above the file
    reserves the top CR as the scratch and needs at least 2 CRs. *)

type interval = {
  reg : Gis_ir.Reg.t;
  start : int;
  stop : int;  (** inclusive; positions are linearized layout order *)
}

type cls_stat = {
  cls : Gis_ir.Reg.cls;
  budget : int;  (** physical registers available to the allocator *)
  pressure : int;  (** peak simultaneous live intervals (pre-allocation) *)
  used : int;  (** distinct physical registers in the rewritten code *)
}

type t = {
  assignment : (Gis_ir.Reg.t * Gis_ir.Reg.t) list;
      (** symbolic register -> physical register, every allocated
          (non-spilled) register that appears in the procedure *)
  spilled : (Gis_ir.Reg.t * int) list;  (** symbolic register -> slot *)
  intervals : interval list;  (** the live intervals the scan ran on *)
  entry_live : Gis_ir.Reg.t list;
      (** registers live into the entry block — the only input bindings
          that survive {!remap_input} *)
  frame : Gis_ir.Reg.t option;
      (** the reserved spill frame base register, [Some] exactly when
          spill code was inserted; pass it to
          {!Gis_sim.Simulator.run}'s [frame] so spill traffic lands in
          the simulator's dedicated spill segment *)
  spill_loads : int;  (** reload instructions inserted *)
  spill_stores : int;  (** spill-store instructions inserted *)
  cr_spill_moves : int;
      (** cr<->gpr transfer moves inserted for condition-register
          spills (a run's [regalloc.cr_spill_moves_total] count) *)
  slots : int;  (** distinct spill slots *)
  per_class : cls_stat list;  (** GPR, FPR, CR in that order *)
}

exception Infeasible of string
(** The procedure cannot be allocated within the register file at all —
    what {!allocate} reports as [Error]. Raised by the pipeline (never
    by this module) so drivers can classify infeasibility separately
    from crashes; deterministic for a given (program, machine, budget). *)

val allocate :
  ?gprs:int ->
  ?fprs:int ->
  ?prov:Gis_obs.Provenance.t ->
  Gis_machine.Machine.t ->
  Gis_ir.Cfg.t ->
  (t, string) result
(** Allocate the procedure in place: every register in the rewritten
    code is physical ([rN]/[fN]/[crN] with [N] below the class budget),
    and spill code is inserted where the scan ran out. [gprs]/[fprs]
    override the machine's register file (the [--regs N] experiments);
    the condition-register budget always comes from the machine.

    When spilling is needed the allocator re-runs the scan with a
    reduced pool: the highest GPR becomes the spill frame base register
    and the next three GPRs (and top three FPRs, when floats are in
    use) become reload/store scratch registers — three because a
    three-address op can have all its operands spilled and distinct.
    When condition-register pressure exceeds the CR file, the top CR is
    additionally reserved as the transfer scratch. [Error] when the
    file is too small even for that (fewer than 5 GPRs, or fewer than
    2 CRs under CR pressure), or when one instruction needs more
    spilled operands of a class than there are scratch registers (a
    call with 4+ spilled arguments). *)

val staged_slots : t -> int list
(** Spill-slot offsets that {!remap_input} pre-stages from the caller
    (spilled registers live at procedure entry): reloads from these
    slots legitimately have no matching spill store. *)

val remap_input : t -> Gis_sim.Simulator.input -> Gis_sim.Simulator.input
(** Translate an input built for the symbolic procedure: register
    bindings move to their physical names, bindings of spilled
    registers become spill-segment bindings at the spill slot
    ([spill_memory]/[spill_float_memory]), and bindings of registers
    the procedure never read at entry are dropped (their physical home
    may be shared with a register that {e is} live). *)

val remap_with_frame :
  t option ->
  Gis_sim.Simulator.input ->
  Gis_sim.Simulator.input * Gis_ir.Reg.t option
(** The input and spill frame to simulate a pipeline's output with:
    {!remap_input} and {!field-frame} after an allocation, the input
    unchanged and no frame without one. *)

val verify :
  ?gprs:int ->
  ?fprs:int ->
  machine:Gis_machine.Machine.t ->
  baseline:Gis_ir.Cfg.t ->
  allocated:Gis_ir.Cfg.t ->
  t ->
  Gis_sim.Simulator.input ->
  (unit, string) result
(** Post-allocation checks, strongest last:

    - no physical register hosts two overlapping live intervals (a
      conflicting def while another value is still live);
    - the rewritten code uses at most the budget of each class;
    - running the functional evaluator on the allocated code with the
      remapped input (and the spill segment routed through
      {!field-frame}) produces observable state identical to the
      symbolic [baseline] on the same input — exact equality, no spill
      filtering, since spill storage is disjoint by construction. *)

val pp : t Fmt.t
(** One-line allocation summary: per-class pressure/used/budget plus
    spill counts. *)
