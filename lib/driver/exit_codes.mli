(** Single source of truth for [gisc] exit codes.

    Every subcommand exits through these constants; the README's
    exit-code table documents the same values. *)

val ok : int  (** 0 *)

val compile_error : int  (** 1 — the input program failed to compile *)

val usage_error : int  (** 2 — bad flags or arguments *)

val verification_failure : int
(** 3 — a simulation mismatch, identity failure, static
    schedule-legality violation, or internal crash *)

val batch_partial_failure : int  (** 4 — batch run, ≥1 program failed *)

val batch_timeout_only : int  (** 5 — batch run, only timeouts failed *)

val fuzz_finding : int
(** 6 — [gisc fuzz] found at least one divergence, checker error, or
    crash; reproducers are in the corpus directory *)

val regalloc_infeasible : int
(** 7 — register allocation reported the procedure infeasible for the
    requested register file (deterministic, not a crash) *)

val describe : int -> string
(** Human-readable meaning of a code; ["unknown"] otherwise. *)

val all : int list
(** The codes above, ascending. *)
