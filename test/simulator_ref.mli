(** Reference simulator over hash tables, for differential tests of
    {!Gis_sim.Simulator}; the same interface, over the same types. *)

val no_input : Gis_sim.Simulator.input
val pp_stop_reason : Gis_sim.Simulator.stop_reason Fmt.t

val run :
  ?fuel:int ->
  ?trace:bool ->
  ?frame:Gis_ir.Reg.t ->
  Gis_machine.Machine.t ->
  Gis_ir.Cfg.t ->
  Gis_sim.Simulator.input ->
  Gis_sim.Simulator.outcome

val profile_fn : Gis_sim.Simulator.outcome -> Gis_ir.Label.t -> int
val observables : Gis_sim.Simulator.outcome -> string
val corrupt_wide_add_for_testing : bool ref

val cycles_per_iteration :
  ?fuel:int ->
  Gis_machine.Machine.t ->
  Gis_ir.Cfg.t ->
  header:Gis_ir.Label.t ->
  Gis_sim.Simulator.input ->
  float
