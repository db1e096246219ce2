(** Scheduling configuration.

    The defaults reproduce the prototype described in the paper's
    Section 6: only "small" reducible regions are scheduled (at most 64
    blocks and 256 instructions), two nesting levels, loops of at most 4
    blocks are unrolled once before and rotated after the first global
    pass. *)

(** How far code may move (paper Section 5.1, "two levels of
    scheduling"). [Local] disables interblock motion entirely — the BASE
    compiler configuration of Section 6, which still runs the basic
    block scheduler. *)
type level = Local | Useful | Speculative

val pp_level : level Fmt.t

type t = {
  level : level;
  rename : bool;
      (** rename the destination of a blocked speculative motion when
          the use-def chains prove it safe (Figure 6's cr6 -> cr5) *)
  prune_transitive : bool;  (** drop timing-implied dependence edges *)
  rules : Priority_rule.t list;  (** heuristic order, Section 5.2 *)
  max_region_blocks : int;
  max_region_instrs : int;
  max_nesting_levels : int;
      (** only regions within this many levels of the innermost are
          scheduled (the paper uses 2) *)
  unroll_small_loops : bool;  (** unroll loops of <= [small_loop_blocks] once *)
  rotate_small_loops : bool;  (** rotate them after the first global pass *)
  small_loop_blocks : int;
  local_post_pass : bool;
      (** run the basic block scheduler after global scheduling *)
  disambiguate : bool;
      (** consult the whole-procedure symbolic address analysis
          ({!Gis_analysis.Symaddr}) when building dependence graphs, so
          that provably disjoint memory accesses need no Mem edge. On
          by default; [gisc --no-disambig] turns it off, leaving only
          the syntactic same-base/same-version rule — the off
          configuration of the A1 disambiguation experiment. Every
          pruned edge is independently re-proved by the checker
          ([Gis_check.Addrcheck]). *)
  split_webs : bool;
      (** run the register-web renaming pre-pass of Section 4.2 before
          scheduling (off by default so that the published Figure 5/6
          register names reproduce exactly) *)
  max_speculation_degree : int;
      (** how many branches a speculative motion may gamble on
          (Definition 7). The paper's prototype supports 1; larger
          values enable the "more aggressive speculative scheduling" of
          Section 7. *)
  profile : (Gis_ir.Label.t -> int) option;
      (** dynamic execution count per block, e.g. from
          {!val:Gis_sim} profiling. When present, speculative candidates
          whose probability of executing (relative to the target block)
          falls below {!field-min_speculation_probability} are not
          moved. *)
  min_speculation_probability : float;
  local_machine : Gis_machine.Machine.t option;
      (** machine description for the local post-pass; the paper gives
          the basic block scheduler "a more detailed model of the
          machine" (Section 5.1), e.g. {!Gis_machine.Machine.rs6k_detailed}.
          [None] reuses the global machine. *)
  allow_duplication : bool;
      (** enable the restricted form of "scheduling with duplication"
          (Definition 6; Section 7 future work): an instruction may move
          from a join block [B] into a predecessor [A] that does not
          dominate it, with fresh copies placed at the end of every
          other predecessor of [B]. Off by default — the paper's
          prototype forbids duplication. *)
  pressure_aware : bool;
      (** prepend a register-pressure rank rule (see
          {!Gis_core.Priority_rule.t}) that demotes interblock motion
          candidates whose import would push the live-register count of
          the target block past the machine's register file. Off by
          default so the published golden schedules reproduce exactly. *)
  regalloc : bool;
      (** run the linear-scan register allocator as a pipeline phase
          after scheduling, rewriting symbolic registers to the
          machine's physical file and inserting spill code. Off by
          default — the paper schedules symbolic code and leaves
          allocation to the XL backend. *)
  regs : int option;
      (** override the GPR/FPR file size the allocator (and the
          pressure heuristic) target; [None] uses the machine's own
          register counts. *)
  obs : Gis_obs.Sink.t;
      (** telemetry sink for structured scheduler decision events
          (candidates, motions, renames, safety rejections, skipped
          regions). {!Gis_obs.Sink.null} by default —
          one dropped closure call per event. *)
  prov : Gis_obs.Provenance.t option;
      (** motion provenance table. When set, the pipeline seeds every
          original instruction, the passes record motions/copies/spill
          code into it, and the final CFG is indexed on completion
          ([gisc explain] renders it); each global region report also
          tallies which rank rule decided every contested pick
          ([Global_sched.region_report.rule_decides]). [None] by
          default — recording is a no-op and schedules are
          byte-identical (pinned test). *)
  prof : Gis_obs.Prof.t option;
      (** self-profiler. When set, the pipeline records one tree per
          {!Pipeline.run} — a ["pipeline"] root with one child per
          phase and one grandchild per compiled region — carrying wall
          clock, allocation, and GC-collection deltas under an exact
          accounting identity ([gisc profile] renders and verifies it).
          [None] by default: recording is a single pattern match and
          schedules are byte-identical (pinned test). *)
  check :
    (stage:string -> pre:Gis_ir.Cfg.t -> post:Gis_ir.Cfg.t -> unit) option;
      (** per-stage verification hook. When set, the pipeline calls
          the hook after each executed stage ([webs], [unroll],
          [global-pass1], [rotate], [global-pass2], [local],
          [regalloc]) with snapshots of the CFG before and after it;
          each stage's [post] snapshot is physically the next stage's
          [pre], so the hook must not mutate it.
          [Gis_check.Check.hook] is the intended callee. [None] by
          default: no snapshots, no cost. *)
}

val default : t
(** [Speculative] scheduling with all the paper's settings. *)

val base : t
(** The paper's BASE compiler: local scheduling only. *)

val useful_only : t
val speculative : t

val of_level : level -> t
(** [base], [useful_only] or [speculative]. *)

val pp : t Fmt.t
(** Every field that can change a run, so two configurations that
    print alike compile alike. The observers ([obs], [prov], [prof],
    [check]) are left out, and [profile] prints only as present or
    absent. *)

val emit : t -> Gis_obs.Sink.sched_event -> unit
(** The global scheduler's one decision channel: hands the event to
    [obs] and to the provenance fold {!Gis_obs.Provenance.observe} on
    [prov]. The [sched.*] counts are {!Gis_obs.Sink.count} over what
    [obs] kept. *)
