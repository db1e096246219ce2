(** The complete compilation flow of the paper's prototype (Section 6):

    + certain inner loops are unrolled;
    + global scheduling is applied the first time, to inner regions only;
    + certain inner loops are rotated;
    + global scheduling is applied the second time, to the rotated inner
      loops and the outer regions;
    + the basic block scheduler runs over every block (Section 5.1).

    With [Config.base] only the last step runs — that is the paper's
    BASE compiler, whose own local scheduling the global results are
    measured against. *)

type stats = {
  unrolled : int;
  rotated : int;
  pass1 : Global_sched.region_report list;
  pass2 : Global_sched.region_report list;
  regalloc : Gis_regalloc.Regalloc.t option;
      (** allocation result when [Config.regalloc] is set; [None]
          otherwise. On [Error] from the allocator, {!run} raises
          [Gis_regalloc.Regalloc.Infeasible] — a register file too
          small to spill into is a task failure, not a silent
          fallback. *)
  alias : Gis_ddg.Ddg.tally;
      (** memory-disambiguation counts summed over every dependence
          graph the run built (both global passes and the local
          pass) *)
}

val phase_names : string list
(** The five standard phases: ["unroll"], ["global-pass1"], ["rotate"],
    ["global-pass2"], ["local"]. *)

val moves : stats -> Global_sched.move list
(** All interblock motions across both passes. *)

val run :
  Gis_machine.Machine.t -> Config.t -> Gis_ir.Cfg.t -> stats
(** Transform the procedure in place. With [config.prof] set, the
    whole run is recorded as one ["pipeline"] profile tree — phases as
    children, compiled regions as grandchildren — whose
    wall/allocation deltas satisfy the exact accounting identity
    ({!Gis_obs.Prof.identity_ok}). The children always include the
    five phases of {!phase_names}, in order (a disabled phase records
    the cost of deciding to skip it, ~0); a ["webs"] node is prepended
    when the Section 4.2 pre-pass runs and a ["regalloc"] node appended
    when allocation runs. *)
