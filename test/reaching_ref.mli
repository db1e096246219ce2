(** Reference reaching definitions over [Int_set]s, for differential
    tests of {!Gis_analysis.Reaching}. *)

type t

val compute : Gis_ir.Cfg.t -> t
val defs_of_use : t -> uid:int -> reg:Gis_ir.Reg.t -> Gis_analysis.Reaching.site list
val uses_of_def : t -> uid:int -> reg:Gis_ir.Reg.t -> int list
