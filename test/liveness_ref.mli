(** Reference whole-procedure liveness, for differential tests of
    {!Gis_analysis.Liveness}. *)

type t

val compute : Gis_ir.Cfg.t -> t
val live_in : t -> int -> Gis_ir.Reg.Set.t
val live_out : t -> int -> Gis_ir.Reg.Set.t
val live_before_terminator : t -> Gis_ir.Cfg.t -> int -> Gis_ir.Reg.Set.t
val pp : t Fmt.t
