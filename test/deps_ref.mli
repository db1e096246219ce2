(** Reference pairwise dependence reconstruction, for differential tests
    of {!Gis_check.Deps.reconstruct}. *)

val reconstruct : ?disambig:bool -> Gis_ir.Cfg.t -> Gis_check.Deps.dep list
