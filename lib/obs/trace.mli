(** Stall-attributed timing telemetry from the simulator.

    The machine model (paper, Section 2) constrains the issue cycle of a
    dynamic instruction in exactly three ways: in-order issue (the
    cursor of the previous instruction), hardware interlocks (operands
    not yet available), and structural hazards (all units of its type
    already taken this cycle). The simulator records, per instruction,
    which constraint was {e binding} and how many cycles each one cost,
    and aggregates the costs here.

    Accounting identity (checked by the test suite): the issue-cycle gap
    between consecutive instructions decomposes into interlock cycles
    (register or store-queue) plus unit-busy cycles, so

    {[ interlock + mem_interlock + sum(unit busy) = last_issue ]}

    — every cycle in [0, last_issue] where the machine failed to issue
    the next instruction is attributed to exactly one cause. Separately,
    [in_order_instrs] counts the instructions that were operand-ready
    before in-order issue reached them — a bounded measure of how much
    an out-of-order frontend could have lifted; it overlaps the gaps
    and is not part of the identity. *)

type stall =
  | No_stall  (** issued the same cycle as its predecessor, unconstrained *)
  | In_order of int
      (** operands were ready [k] cycles before in-order issue allowed it *)
  | Interlock of { reg : Gis_ir.Reg.t; producer : int }
      (** waiting on [reg], produced by the instruction with uid
          [producer] — the hardware-interlock rule *)
  | Mem_interlock of { producer : int }
      (** the secondary store-queue delay of the detailed model, behind
          a store *)
  | Call_interlock of { producer : int }
      (** the same secondary memory delay, but the producer is a call —
          kept apart from [Mem_interlock] so per-category accounting
          does not blame the store queue for call serialization *)
  | Unit_busy of Gis_ir.Instr.unit_ty
      (** all units of the type were taken — structural hazard *)

val stall_category : stall -> string
(** Short category slug: ["none"], ["in_order"], ["interlock"],
    ["mem_interlock"], ["call_interlock"], ["unit_busy"]. *)

val pp_stall : stall Fmt.t

(** One dynamic issue, recorded only when full tracing is requested. *)
type event = {
  cycle : int;  (** issue cycle *)
  unit_ : Gis_ir.Instr.unit_ty;
  block : Gis_ir.Label.t;  (** block being executed *)
  instr : Gis_ir.Instr.t;
  stall : stall;  (** the binding constraint on this issue cycle *)
  gap : int;  (** cycles since the previous instruction's issue *)
  fin : int;  (** completion cycle: issue + the unit's execution time *)
}

type unit_stat = {
  unit_ : Gis_ir.Instr.unit_ty;
  issues : int;  (** dynamic instructions issued on this unit type *)
  busy_stall : int;  (** gap cycles lost to this unit type being full *)
  histogram : (int * int) list;
      (** utilization: [(k, c)] means [c] cycles issued exactly [k]
          instructions on this unit type; covers every cycle in
          [0, last_issue], including [k = 0] *)
}

type block_stat = {
  block : Gis_ir.Label.t;
  entries : int;  (** dynamic entries (the profile count) *)
  instrs : int;  (** dynamic instructions issued from this block *)
  stall_cycles : int;  (** gap cycles attributed while inside this block *)
}

type summary = {
  last_issue : int;  (** issue cycle of the last dynamic instruction *)
  interlock_cycles : int;
  mem_interlock_cycles : int;
  call_interlock_cycles : int;
  in_order_instrs : int;
      (** dynamic instructions that were operand-ready strictly before
          in-order issue let them go — the issues an out-of-order
          machine could have lifted; a count, not cycles, and not part
          of the identity *)
  units : unit_stat list;  (** one entry per unit type, fixed order *)
  blocks : block_stat list;  (** sorted by label *)
  events : event list;  (** chronological; [[]] unless tracing was on *)
}

val unit_busy_total : summary -> int
(** Sum of [busy_stall] over all unit types. *)

val stall_total : summary -> int
(** [interlock + mem_interlock + call_interlock + unit_busy_total] —
    equals [last_issue] by the accounting identity. *)

val to_json : summary -> Json.t
(** Canonical JSON: unit utilization, stall totals, per-block breakdown,
    and the event list when present. *)

val pp_event : event Fmt.t
