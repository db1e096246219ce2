(** Parametric machine description (paper, Section 2).

    A superscalar machine is a collection of functional units of [m]
    types with [n_1 ... n_m] units of each type. Each instruction
    executes on one unit of its type for an integral number of cycles,
    and pipeline constraints appear as integer delays on data dependence
    edges: if [i1 -> i2] is a dependence edge, [i1] takes [t] cycles and
    the edge carries delay [d], then [i2] should start no earlier than
    [start(i1) + t + d]. Scheduling earlier is never incorrect — the
    hardware interlocks — only slower. *)

type t

val name : t -> string

val units : t -> Gis_ir.Instr.unit_ty -> int
(** Number of functional units of the given type (n_i). *)

val regs : t -> Gis_ir.Reg.cls -> int
(** Size of the physical register file of the given class. Scheduling
    itself runs on symbolic registers (paper, Section 2); this bound is
    what the register allocator and the pressure-aware rank heuristic
    allocate against. Defaults mirror the RS/6000: 32 GPRs, 32 FPRs,
    8 condition register fields. *)

val exec_time : t -> Gis_ir.Instr.t -> int
(** Cycles the instruction occupies its unit; >= 1. *)

val delay : t -> producer:Gis_ir.Instr.t -> consumer:Gis_ir.Instr.t -> reg:Gis_ir.Reg.t -> int
(** Delay carried by the dependence edge from [producer] to [consumer]
    through register [reg]; >= 0. Only definition-to-use edges carry a
    non-zero delay (Section 4.2). *)

val mem_delay : t -> producer:Gis_ir.Instr.t -> consumer:Gis_ir.Instr.t -> int
(** Delay carried by a memory dependence edge — one of the "secondary
    features of the machine" (Section 5.1) that only the basic block
    scheduler's detailed model knows about. Zero on the primary models;
    a zero delay also imposes no simulator constraint (the hardware
    forwards). *)

val make :
  name:string ->
  fixed_units:int ->
  float_units:int ->
  branch_units:int ->
  ?gprs:int ->
  ?fprs:int ->
  ?crs:int ->
  ?exec_time:(Gis_ir.Instr.t -> int) ->
  ?delay:
    (producer:Gis_ir.Instr.t -> consumer:Gis_ir.Instr.t -> reg:Gis_ir.Reg.t -> int) ->
  ?mem_delay:(producer:Gis_ir.Instr.t -> consumer:Gis_ir.Instr.t -> int) ->
  unit ->
  t
(** Build a custom machine. Defaults: RS/6000 execution times and the
    four delay rules of Section 2.1. *)

val rs6k : t
(** The RS/6000 model of Section 2.1: one fixed-point, one floating
    point and one branch unit; delayed load = 1 cycle; fixed compare to
    branch = 3 cycles; floating point result = 1 cycle; float compare to
    branch = 5 cycles. *)

val rs6k_detailed : t
(** [rs6k] plus a secondary delay: a load issued the cycle after a store
    pays one extra cycle (store-queue forwarding). This is the "more
    detailed model of the machine" that the paper gives only to the
    basic block scheduler (Section 5.1); pass it as the local post-pass
    machine to reproduce that design. *)

val superscalar : width:int -> t
(** [superscalar ~width] has [width] units of every type with RS/6000
    latencies — the "machines with a larger number of computational
    units" the paper's Section 6 anticipates. [superscalar ~width:1] has
    the same timing as {!rs6k}. *)

val rs6k_exec_time : Gis_ir.Instr.t -> int
val rs6k_delay :
  producer:Gis_ir.Instr.t -> consumer:Gis_ir.Instr.t -> reg:Gis_ir.Reg.t -> int

val zero_delay_single_issue : t
(** A degenerate machine with unit latencies and no delays — useful in
    tests to isolate scheduler mechanics from timing. *)

val pp : t Fmt.t
