(** Differential fuzzing of the whole compiler.

    One seed denotes one random Tiny-C program
    ({!Gis_workloads.Random_prog}, hardened grammar by default) and one
    random input. The oracle computes the observable trace — stop
    reason, call outputs, final memories — of the {e unscheduled} code
    on the reference machine, then requires every cell of a
    (level x regalloc x machine) matrix to reproduce it exactly while
    also passing the static legality checker ({!Gis_check.Check}), the
    IR validator, and (in allocation cells) the register-allocation
    verifier. A trace divergence, checker error, verifier rejection, or
    any exception out of the pipeline or simulator is a {e finding};
    findings are delta-debugged ({!Shrink}) to a minimal reproducer.

    Everything is deterministic in the seed: re-running a campaign
    reproduces the same findings and the same shrunk programs. *)

type kind =
  | Divergence of { expected : string; got : string }
      (** observable traces differ (expected = unscheduled reference) *)
  | Check_failure of string list
      (** static checker errors, or the allocation verifier said no *)
  | Crash of string  (** pipeline, validator or simulator raised *)

val kind_label : kind -> string
(** ["divergence"], ["check-failure"] or ["crash"]. *)

val same_kind : kind -> kind -> bool
(** Same failure class (payloads ignored) — the shrinking predicate. *)

type cell = {
  level : Gis_core.Config.level;
  regalloc : bool;  (** allocate onto {!regalloc_regs} registers *)
  machine : Gis_machine.Machine.t;
}

val cells : cell list
(** The matrix: 3 levels x (6 machines symbolic + 2 machines
    allocated). Machines cover issue widths 1-8, 3x-stretched delays
    and an asymmetric 4/1/1 unit mix. *)

val cell_name : cell -> string
(** Filesystem-safe slug, e.g. ["speculative_superscalar-x4_ra"]. *)

val pp_cell : cell Fmt.t
val regalloc_regs : int
val reference_machine : Gis_machine.Machine.t

val run_cell :
  ?disambig:bool ->
  cell ->
  Gis_frontend.Codegen.compiled ->
  Gis_sim.Simulator.input ->
  reference:string ->
  (unit, kind) result
(** Schedule (a deep copy of) the compiled program under the cell's
    configuration with the legality checker hooked in, and compare the
    resulting observable trace against [reference]. [disambig]
    (default [true]) sets [Config.disambiguate] — the fuzzer's default
    exercises symbolic memory disambiguation in every cell. Never
    raises — exceptions become [Crash]. *)

type finding = {
  seed : int;
  cell : cell;  (** first failing cell, in {!cells} order *)
  kind : kind;
  program : Gis_frontend.Ast.program;  (** as generated *)
  shrunk : Gis_frontend.Ast.program;  (** minimal reproducer *)
}

type report = {
  seeds_run : int;
  cells_per_seed : int;
  findings : finding list;  (** in seed order *)
}

val campaign :
  ?params:Gis_workloads.Random_prog.params ->
  ?max_findings:int ->
  ?shrink_fuel:int ->
  ?jobs:int ->
  ?log:(string -> unit) ->
  ?disambig:bool ->
  start:int ->
  seeds:int ->
  unit ->
  report
(** Fuzz the seed window [start, start + seeds); stop early after
    [max_findings] (default 5) findings, then shrink them (in seed
    order). [jobs] (default 1) detects that many seeds concurrently on
    separate domains — each seed's detection is self-contained, so the
    findings are identical at any job count. [log] receives one line
    per finding as it is shrunk. [disambig] (default [true]) is
    applied to every cell; [false] is the A1 control campaign. *)

val report_to_json : report -> Gis_obs.Json.t
