(** IR well-formedness checking.

    Run after construction and after every scheduling transformation in
    tests: catching a malformed graph at the source beats debugging a
    miscompiled schedule. *)

val check : Cfg.t -> (unit, string list) result
(** All violations found, not just the first: unresolved branch targets,
    branches in block bodies, non-branch terminators, duplicate
    instruction uids, register-class violations (e.g. a branch testing a
    general-purpose register), update-form loads whose destination
    equals the base, and current cached edges ({!Cfg.edges_cached})
    that differ from the terminators. *)

val check_exn : Cfg.t -> unit
(** Raises [Failure] with the formatted violation list. *)
