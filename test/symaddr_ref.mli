(** Reference symbolic address analysis over [Int_map] environments,
    for differential tests of {!Gis_analysis.Symaddr}. *)

type value

val pp_value : value Fmt.t
(** Prints like {!Gis_analysis.Symaddr.pp_value}, and injectively, so
    two analyses agree on a value exactly when they print it alike. *)

type t

val compute : Gis_ir.Cfg.t -> t
val base_value : t -> int -> value
