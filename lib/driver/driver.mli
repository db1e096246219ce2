(** One run per program, and a parallel batch service over many.

    {!run_one} is the paper's unit of measurement — one program compiled
    by BASE and by the global scheduler, both simulated on one input —
    and the only place that pair is built: the pool, [gisc explain] and
    every [gisc] subcommand call it. {!run} spreads tasks, one
    {!run_one} each, across a fixed pool of OCaml 5 domains pulling
    from a shared queue; whole compilation units are embarrassingly
    parallel.

    Guarantees:

    - {b One numbering}: whether or not it simulates, {!run_one} takes
      the baseline copy before the scheduled one, and each copied block
      draws a uid from the generator both share — so every caller sees
      the same uids.
    - {b Deterministic results}: the report lists task results in input
      order, and every result is byte-identical regardless of
      [~jobs] — worker count and queue interleaving only affect
      timing fields. Per-domain label counters are reset at the start
      of every task (see {!Gis_ir.Label.reset_fresh_counter}), so a
      task's output is a function of the task alone.
    - {b Fault isolation}: a task that raises (frontend error, scheduler
      bug, simulator trap) produces an [Error] entry in the report;
      the pool and the remaining tasks are unaffected.
    - {b Budget enforcement}: [~timeout] is a wall-clock budget for the
      whole batch, measured from pool start. A task dequeued after the
      budget is spent is marked [Timed_out] {e without being run};
      additionally, a task that itself runs longer than the budget is
      reported [Timed_out] when it finishes (cooperative — domains
      cannot be killed), so a diverging task is bounded only by the
      pipeline's own progress guards and the simulator's fuel, both of
      which are finite.
    - {b Telemetry}: per-task wall-clock seconds, per-worker busy time and
      task counts, queue high-water mark, and pool utilization, all
      reportable as JSON via {!report_to_json}.
    - {b Counts that belong to their task}: every count a task reports
      ({!summary.counts}: scheduler decisions, regions, disambiguation,
      rule tallies, allocation, simulation) is a fold over values that
      task's own run returned, so it is the same at any [~jobs] and
      the same as the task compiled alone. {!batch_counts} adds them
      up with the pool's own; no count lives in process-wide state. *)

type source =
  | Tiny_c of string  (** Tiny-C source text *)
  | Asm of string  (** pseudo-assembly in the paper's Figure 2 notation *)
  | File of string
      (** path read inside the worker when the task runs, so batch IO
          happens in parallel and an unreadable file fails only its own
          task ([Crashed], not an exception in the caller); [.s] files
          parse as pseudo-assembly, anything else as Tiny-C *)
  | Generated of int
      (** random Tiny-C program from {!Gis_workloads.Random_prog} with
          this seed — pure data, so tasks stay deterministic *)

type task = { name : string; source : source }

val task_of_file : string -> task
(** [{ name = Filename.basename path; source = File path }]. *)

val workload_tasks : unit -> task list
(** The built-in corpus: minmax plus the four SPEC proxies, in the
    paper's order. *)

val corpus_tasks : seeds:int list -> task list
(** One generated-program task per seed. *)

type summary = {
  blocks : int;
  instrs : int;
  unrolled : int;
  rotated : int;
  moves : int;
  spec_moves : int;
  renames : int;
  events : int;  (** scheduler decision events emitted during the run *)
  spilled_regs : int;  (** symbolic registers spilled; 0 when regalloc off *)
  spill_instrs : int;  (** reload + spill-store instructions inserted *)
  spill_slots : int;  (** distinct spill slots *)
  max_pressure : int;
      (** peak live intervals across classes; 0 when regalloc off *)
  base_cycles : int;  (** -1 when simulation was disabled *)
  sched_cycles : int;  (** -1 when simulation was disabled *)
  observables : string;  (** canonical observable trace, "" unsimulated *)
  code : string;  (** the scheduled procedure, printed *)
  counts : Gis_obs.Counts.t;
      (** {!run_counts} of the scheduled run and its simulation *)
}

type error =
  | Compile_error of string
  | Crashed of string  (** exception escaping the task, printed *)
  | Timed_out of float
      (** wall-clock seconds: the task's own time when it ran over the
          budget, or the batch time elapsed when the task was skipped
          because the budget was already spent *)
  | Mismatch of string
      (** scheduling changed observable behaviour; payload is the
          base/scheduled trace pair, printed *)
  | Infeasible of string
      (** register allocation reported {!Gis_regalloc.Regalloc.Infeasible}:
          the procedure does not fit the register file even with the
          spill reservation — a deterministic, well-defined outcome,
          not a crash *)

val pp_error : error Fmt.t

val compile_task : task -> Gis_frontend.Codegen.compiled
(** Compile the task's source to a CFG; raises the frontend's own
    exceptions ([Parser.Error], [Lexer.Error], [Codegen.Error],
    [Asm.Error]). Exposed for tools that replay a run stage by
    stage. *)

val default_input :
  Gis_frontend.Codegen.compiled ->
  elements:int ->
  seed:int ->
  Gis_sim.Simulator.input
(** The simulation input [gisc] uses by default: deterministic
    pseudo-random contents for every declared array, and the variable
    [n] (if declared) bound to [elements]. *)

type simulation = {
  baseline : Gis_ir.Cfg.t;  (** the BASE-compiled copy *)
  input : Gis_sim.Simulator.input;  (** before the allocation's remap *)
  base : Gis_sim.Simulator.outcome;
  sched : Gis_sim.Simulator.outcome;
  observables : string;  (** the trace both runs produced *)
}

type run = {
  compiled : Gis_frontend.Codegen.compiled;  (** never scheduled *)
  cfg : Gis_ir.Cfg.t;  (** the scheduled (and possibly allocated) copy *)
  stats : Gis_core.Pipeline.stats;
  sim : simulation option;  (** [Some] exactly when simulated *)
}

val run_one :
  ?simulate:bool ->
  ?trace:bool ->
  ?elements:int ->
  ?seed:int ->
  Gis_machine.Machine.t ->
  Gis_core.Config.t ->
  task ->
  (run, error) result
(** Reset the label counter, compile, copy for BASE then for the
    scheduler, schedule the second copy under [config] (whose sink,
    provenance, profiler and check hook see only it) and validate it.
    With [simulate] (default true) also compile BASE, simulate both on
    one input ([Generated] tasks their own, others {!default_input}
    with [elements]/[seed], defaults 128/3; remapped through the
    allocation for the scheduled code, whose event log [trace] records)
    and compare observables. Errors: frontend exceptions are
    [Compile_error], differing observables [Mismatch], an infeasible
    allocation [Infeasible], any other exception [Crashed]. *)

type task_result = {
  task : string;
  outcome : (summary, error) result;
  seconds : float;  (** wall-clock time inside the task *)
  queued : float option;
      (** seconds from batch start until a worker took the task; [None]
          when the batch budget was spent before it could run *)
  worker : int;  (** pool worker (0-based) that ran the task *)
  flight : string list;
      (** on [Error] outcomes, the worker's {!Gis_obs.Flight} ring at
          the moment of failure (oldest first) — the last scheduler and
          driver events that led up to it. Empty on [Ok] results and on
          tasks skipped by the batch budget. *)
}

type pool_stats = {
  jobs : int;
  tasks : int;
  failed : int;
  wall_seconds : float;  (** end-to-end batch wall-clock time *)
  busy_seconds : float array;  (** per-worker time spent inside tasks *)
  tasks_run : int array;  (** per-worker completed task count *)
  queue_high_water : int;  (** deepest queue observed at a dequeue *)
}

val utilization : pool_stats -> float
(** [sum busy / (jobs * wall)], in [0, 1]; how busy the pool was. *)

type report = { results : task_result list; pool : pool_stats }

val failures : report -> (string * error) list
(** Failed tasks in input order; empty iff the whole batch succeeded. *)

val run :
  ?jobs:int ->
  ?timeout:float ->
  ?simulate:bool ->
  ?elements:int ->
  ?seed:int ->
  Gis_machine.Machine.t ->
  Gis_core.Config.t ->
  task list ->
  report
(** Compile and schedule every task. [jobs] (default 1) is the domain
    pool size, clamped to the task count; workers always run in spawned
    domains, so the caller's domain-local state is never touched.
    [simulate], [elements] and [seed] are {!run_one}'s. [config.obs]
    is replaced by a private per-task sink
    — a shared sink would race across domains; use the [events] count
    in each summary instead. Likewise, when [config.prov] is set, each
    task records into a fresh table of its own (which also turns on
    the rule tallies of its counts). *)

val report_to_json : ?deterministic:bool -> report -> Gis_obs.Json.t
(** With [deterministic] (default false) every field that depends on
    timing or on the worker count — task seconds, worker assignment,
    flight-recorder dumps, and all pool fields except [tasks]/[failed]
    — is zeroed or dropped, so reports are byte-identical across runs
    and job counts. *)

val pp_table : report Fmt.t
(** Human-readable batch table: one row per task plus a pool summary
    and the pool's queue-wait and task-run-time log2 histograms (µs). *)

val run_counts :
  ?sim:Gis_sim.Simulator.outcome ->
  ?bounds:Gis_bounds.Bounds.t ->
  events:Gis_obs.Sink.sched_event list ->
  Gis_core.Pipeline.stats ->
  Gis_obs.Counts.t
(** Every count of one scheduled run, under its report key, from the
    values the run returned: [sched.*] from its decision [events]
    ({!Gis_obs.Sink.count}) and region reports, [priority.*] from the
    region reports (zero unless the run kept provenance), [alias.*]
    from its dependence graphs' tally, [regalloc.*] from the
    allocation, [sim.*] from the scheduled simulation [sim], and
    [bound.*] from [bounds]. The [driver.*] counts are zero: one run is
    no batch. *)

val batch_counts : report -> Gis_obs.Counts.t
(** [driver.*] from the report (tasks, failures, queue-wait and run
    time), plus the successful tasks' {!summary.counts}, added up. *)
