(** Motion provenance: where every final instruction came from.

    A table keyed by instruction uid recording, for each instruction of
    the final CFG: the block it originated in, the motion kind that put
    it where it is (the paper's Section 4 taxonomy — useful motion,
    speculative motion past one branch, duplication — plus [Unmoved]
    and [Spill_inserted] for allocator-made code), the priority-rule
    ranks at decision time, and the unroll/rotate copy generation.

    Recording functions take [t option] and are no-ops on [None], so
    passes thread [Config.prov] through unconditionally; with
    provenance off the schedule is byte-identical (pinned test). The
    global scheduler's motions arrive as {!Sink} events through
    {!observe}; seeds, unroll/rotate copies, spill code and local ranks
    are still recorded by direct calls. *)

type kind = Unmoved | Useful | Speculative | Duplicated | Spill_inserted

val kind_name : kind -> string
val pp_kind : kind Fmt.t

type scores = Sink.scores = { d : int; cp : int; order : int; pressure : int }

type record = {
  uid : int;
  origin : Gis_ir.Label.t;  (** block the instruction started in *)
  kind : kind;
  scores : scores option;
  copy_index : int;  (** 0 = original; +1 per unroll/rotate copy *)
  renamed : bool;  (** destination renamed to unblock the motion *)
  moved_from : Gis_ir.Label.t option;
}

type t

val create : unit -> t
val find : t -> int -> record option

val seed : t option -> uid:int -> origin:Gis_ir.Label.t -> unit
(** Register an original instruction; keeps an existing record. *)

val copied : t option -> orig:int -> copy:int -> block:Gis_ir.Label.t -> unit
(** An unroll/rotate copy: inherits [orig]'s record one copy generation
    deeper. *)

val observe : t option -> Sink.sched_event -> unit
(** The motion fold over the global scheduler's decision stream: a
    [Moved_*] event records its kind ([Duplicated] when it carries
    copies), decision-time scores and source block, and gives each copy
    a [Duplicated] record inheriting the moved instruction's; the
    [Renamed] event that follows marks the instruction and those copies
    renamed. Other events are ignored. *)

val spill : t option -> uid:int -> block:Gis_ir.Label.t -> unit
(** Allocator-inserted spill code (loads, stores, slot-base setup). *)

val scored : t option -> uid:int -> scores:scores -> unit
(** Local-scheduler ranks, recorded only when the record has none. *)

val finalize : t option -> Gis_ir.Cfg.t -> unit
(** Walk the final CFG and record each uid's (block, position). Must
    run before the queries below. *)

type entry = { record : record; block : Gis_ir.Label.t; position : int }

val entries : t -> entry list
(** One entry per final instruction, ordered by (block, position). *)

val missing : t -> Gis_ir.Cfg.t -> int list
(** Uids present in the CFG with no provenance record — non-empty means
    a pass created instructions without recording them (conservation
    violation; QCheck-tested empty). *)

val counts : t -> (kind * int) list
(** Final instructions per kind — useful, speculative, duplicated,
    spill-inserted, unmoved, in that order; sums to the
    instruction count of the finalized CFG. *)

(** Per-block cycle attribution: the schedule's stall-gap saving in
    each block, credited to the motion kinds statically present there
    by largest-remainder apportionment (credits sum to delta exactly,
    and deltas sum to the whole-program E−A issue-cycle difference —
    the accounting identity the test suite checks). *)
type attribution = {
  ablock : Gis_ir.Label.t;
  delta : int;
  credits : (kind * int) list;
}

val attribute : t -> base:Trace.summary -> sched:Trace.summary -> attribution list
val attribution_total : attribution list -> int

val to_json : t -> Json.t
val attribution_to_json : attribution list -> Json.t
