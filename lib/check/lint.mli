(** Rule-based IR linter.

    Structural hygiene checks over a single CFG, independent of any
    transformation: branch targets must resolve to layout blocks, every
    block should be reachable, loops should be natural (reducible),
    registers read before any definition on some path are suspicious,
    definitions nothing ever reads are suspicious, stores provably
    overwritten before anything could read them are suspicious
    ([lint.dead-store], proved with the checker-side affine address
    analysis {!Addrcheck}), and spill code must follow the allocator's
    slot discipline. Hard malformations are [Error]s; heuristic
    findings are [Warning]s. A branch to a missing label leaves the
    edges undefined, so when any is reported the rules that read edges
    (reachability, reducibility, dataflow, dead stores) are skipped. *)

val run :
  ?prov:Gis_obs.Provenance.t ->
  ?staged_slots:int list ->
  ?stage:string ->
  Gis_ir.Cfg.t ->
  Diagnostic.t list
(** [stage] tags the diagnostics (default ["lint"]). [prov] enables the
    spill-discipline rules over [Spill_inserted] records;
    [staged_slots] lists slot offsets the caller pre-stages at entry
    ({!Gis_regalloc.Regalloc.staged_slots}), exempt from the
    orphan-reload rule. *)
