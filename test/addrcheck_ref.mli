(** Reference [Addrcheck] over every register of the procedure, for
    differential tests of {!Gis_check.Addrcheck}. *)

type t

val compute : Gis_ir.Cfg.t -> t
val delta : t -> a:int -> b:int -> int option
