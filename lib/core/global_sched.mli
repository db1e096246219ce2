(** PDG-driven global instruction scheduling (paper Section 5).

    Regions are scheduled innermost first; within a region, basic blocks
    are visited in topological order and filled cycle by cycle from a
    ready list drawn from the block itself, from its equivalent blocks
    (useful motion), and — at the [Speculative] level — from the
    immediate CSPDG successors of the block and of its equivalent blocks
    (1-branch speculative motion). Moved instructions are physically
    removed from their home block. Speculative motions are subject to
    the live-on-exit rule of Section 5.3, with optional renaming of the
    moved definition when use-def chains prove it safe.

    Invariants maintained (Section 5.1): instructions never cross region
    boundaries; all motion is upward; branch order is preserved (branches
    never move); no duplication unless [Config.allow_duplication]; no new
    basic blocks. Every decision is reported once, through
    {!Config.emit}. *)

type move = {
  uid : int;
  from_label : Gis_ir.Label.t;
  to_label : Gis_ir.Label.t;
  speculative : bool;
  renamed : (Gis_ir.Reg.t * Gis_ir.Reg.t) option;
      (** (old, fresh) when the motion required renaming the moved
          definition *)
  duplicated_into : Gis_ir.Label.t list;
      (** blocks that received a fresh copy because the target block
          does not dominate the source (Definition 6's restricted
          "scheduling with duplication"; requires
          [Config.allow_duplication]) *)
}

val pp_move : move Fmt.t

type blocked = {
  blocked_uid : int;
  reason : [ `Live_on_exit of Gis_ir.Reg.t | `Rename_unsafe of Gis_ir.Reg.t ];
}

type region_report = {
  region_id : int;
  nesting : int;
  scheduled : bool;
  skip_reason : string option;
  moves : move list;
  blocked : blocked list;
      (** candidate motions rejected by the speculation safety rule *)
  attempted : bool;
      (** false for a region the pass left out unseen: outside its
          [only] filter or past the nesting limit *)
  rule_decides : int array;
      (** when the run keeps provenance ([Config.prov]), how many
          contested ready-list picks each rule of {!Priority_rule.all}
          decided, in that order, then the picks every rule tied on;
          [[||]] otherwise, and no pick is tallied *)
}

val schedule :
  ?only:(Gis_analysis.Regions.region -> bool) ->
  ?regions:Gis_analysis.Regions.t ->
  ?alias:Gis_ddg.Ddg.tally ->
  Gis_machine.Machine.t ->
  Config.t ->
  Gis_ir.Cfg.t ->
  region_report list
(** Schedule every eligible region of the procedure, innermost first,
    honouring the size and nesting limits in the configuration; [only]
    further restricts which regions are touched (used by the pipeline's
    inner-regions-first pass). [regions] supplies a precomputed region
    analysis; callers must guarantee it matches the CFG's current shape
    (interblock motion preserves the shape, so {!Pipeline} shares one
    analysis between its two global passes unless rotation changed the
    graph in between). With [config.level = Local] no region is
    scheduled (reports only). Each region's dependence graph adds its
    disambiguation counts to [alias]. Does not run the local post-pass
    — see {!Pipeline}. *)

val counts : region_report list -> Gis_obs.Counts.t
(** [sched.regions_scheduled_total], [sched.regions_skipped_total]
    (attempted regions left unscheduled) and one
    [priority.rule_decides_total.<slug>] per rule, plus
    [.order-fallback], summed over the reports. *)

val is_inner_region : Gis_analysis.Regions.region -> bool
(** A region that is a loop containing no other loop — the paper's
    "inner region". *)
