(** [gisc explain]: provenance-tracked run of one program.

    One {!Driver.run_one} of the task with a fresh provenance table on
    [config] — the base and scheduled versions simulated and their
    observables compared, so a schedule that changes behaviour is
    [Error (Mismatch _)] — with the per-block issue-cycle difference
    attributed to motion kinds. The deltas
    sum to [base_last_issue - sched_last_issue] exactly (the E−A
    accounting identity; {!identity_holds} checks it and the test suite
    pins it on every workload). *)

type t = {
  task : string;
  prov : Gis_obs.Provenance.t;
  cfg : Gis_ir.Cfg.t;
  attribution : Gis_obs.Provenance.attribution list;
  base_last_issue : int;
  sched_last_issue : int;
  base_cycles : int;
  sched_cycles : int;
  sched_telemetry : Gis_obs.Trace.summary;
  bounds : Gis_bounds.Bounds.t;
      (** schedule-quality lower bounds and gap attribution for the
          scheduled run (see {!Gis_bounds.Bounds}) *)
  mem_edges_kept : int;
      (** Mem dependence edges materialised while building the
          scheduled pipeline's DDGs (the baseline run is excluded) *)
  mem_edges_pruned : int;
      (** Mem edges memory disambiguation proved unnecessary — the
          family rule plus, when [config.disambiguate], the symbolic
          address analysis *)
}

val delta_total : t -> int
val identity_holds : t -> bool

val explain :
  ?elements:int ->
  ?seed:int ->
  ?trace:bool ->
  Gis_machine.Machine.t ->
  Gis_core.Config.t ->
  Driver.task ->
  (t, Driver.error) result
(** [trace] (default false) additionally records the scheduled run's
    per-issue event log in [sched_telemetry] (for
    {!Gis_obs.Chrome_trace} export or the ASCII pipeline view).
    [elements]/[seed] pick the input as {!Driver.run_one} does. Any
    [Config.prov] already on [config] is replaced by the fresh table. *)

val pp : t Fmt.t
(** Per-instruction provenance grouped by block, motion-kind counts,
    and the per-block cycle attribution table. *)

val to_json : t -> Gis_obs.Json.t
