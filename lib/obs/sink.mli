(** Pluggable sink for structured scheduler decision events.

    The global and local schedulers narrate what they do — which
    instructions became interblock candidates, which motions committed
    (and whether they were useful, speculative or duplicated), which
    were renamed, which were blocked by the Section 5.3 safety rule, and
    which regions were skipped and why. The global scheduler writes each
    decision exactly once, as an event; motion provenance and the
    [sched.*] counters ({!count}) are folds over the stream. A sink is
    just a callback; the default {!null} sink costs one indirect call
    per event, so tracing is always compiled in and enabled by plugging
    a real sink into [Config.obs]. *)

(** Priority ranks of the winning heap entry when the scheduler
    committed (paper Section 5.2): delay, critical path, source order,
    pressure rank. *)
type scores = { d : int; cp : int; order : int; pressure : int }

type sched_event =
  | Candidate_considered of {
      uid : int;
      from_block : Gis_ir.Label.t;
      into_block : Gis_ir.Label.t;
      speculative : bool;
          (** true when the motion out of [from_block] would execute the
              instruction on paths where it was not originally present *)
    }
  | Moved_useful of {
      uid : int;
      from_block : Gis_ir.Label.t;
      to_block : Gis_ir.Label.t;
      scores : scores;
      copies : (int * Gis_ir.Label.t) list;
          (** duplication copies as (copy uid, host block); non-empty
              means the motion is a duplication (Definition 6) *)
    }
  | Moved_speculative of {
      uid : int;
      from_block : Gis_ir.Label.t;
      to_block : Gis_ir.Label.t;
      scores : scores;
      copies : (int * Gis_ir.Label.t) list;
    }
  | Renamed of { uid : int; from_reg : Gis_ir.Reg.t; to_reg : Gis_ir.Reg.t }
      (** follows the [Moved_*] event of the same [uid] *)
  | Blocked of { uid : int; reason : string }
      (** a candidate motion rejected by the speculation-safety rule *)
  | Region_skipped of { region_id : int; reason : string }
  | Block_scheduled of { block : Gis_ir.Label.t; cycles : int }
      (** local post-pass finished a block with the given schedule length *)

type t = { emit : sched_event -> unit }

val null : t
(** Drops every event. *)

val memory : unit -> t * (unit -> sched_event list)
(** [memory ()] returns a sink and a function producing everything
    emitted so far, in emission order. *)

val tee : t -> t -> t
(** Forward each event to both sinks, left first. *)

val count : sched_event list -> Counts.t
(** The counter fold over one run's events: [sched.moves_useful_total],
    [sched.moves_speculative_total], [sched.duplication_copies_total]
    (once per copy), [sched.renames_total] and
    [sched.blocked_motions_total]. The per-region counts have no event
    behind them and come from the scheduler's region reports. *)

val event_to_json : sched_event -> Json.t
(** A motion's [scores] and [copies] are left out, as in {!pp_event}. *)

val pp_event : sched_event Fmt.t
