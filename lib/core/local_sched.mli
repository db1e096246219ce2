(** The basic block (local) scheduler.

    The shared list scheduler ({!List_sched}) run over one block's
    intra-block dependence graph with the D/CP priority heuristics: the
    global pass's loop with the block's own instructions as the only
    candidates. The paper's BASE compiler runs this on every block; the
    global scheduler also runs it as a post-pass, because global
    decisions "are not necessarily optimal in a local context"
    (Section 5.1). Functional units are fully pipelined: each
    unit issues at most one instruction per cycle, execution times affect
    only result availability. *)

val schedule_block :
  ?rules:Priority_rule.t list ->
  ?prov:Gis_obs.Provenance.t ->
  ?sym:Gis_analysis.Symaddr.t ->
  ?alias:Gis_ddg.Ddg.tally ->
  Gis_machine.Machine.t ->
  Gis_ir.Block.t ->
  int
(** Reorder the block body in place (the terminator stays last) and
    return the schedule length in cycles — the issue cycle of the
    terminator plus one. With [prov], records the decision-time ranks
    of instructions whose provenance has no scores yet. [sym] prunes
    provably false Mem edges from the block's DDG
    ({!Gis_ddg.Ddg.build_single_block}), which adds its disambiguation
    counts to [alias]. *)

val schedule_cfg :
  ?rules:Priority_rule.t list ->
  ?obs:Gis_obs.Sink.t ->
  ?prov:Gis_obs.Provenance.t ->
  ?disambig:bool ->
  ?alias:Gis_ddg.Ddg.tally ->
  Gis_machine.Machine.t ->
  Gis_ir.Cfg.t ->
  unit
(** Apply {!schedule_block} to every block, emitting a
    [Block_scheduled] event per block to [obs] (default
    {!Gis_obs.Sink.null}). [disambig] (default [true]) runs the
    symbolic address analysis once for the procedure and shares it
    across blocks. *)
