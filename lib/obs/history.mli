(** Bench trajectory: an append-only JSONL history of bench runs.

    The [--baseline --check] gate compares one run against one
    committed snapshot; the history file records every run — cycles,
    wall clock, allocation — so drift that creeps in under the gate's
    tolerance is still visible over time. [bench --history FILE]
    appends one record per run; [--trend] compares the newest record
    against the mean of the prior window and warns (non-gating) on
    upward drift. *)

type entry = {
  time : float;  (** wall clock of the run (0.0 in deterministic mode) *)
  label : string;  (** free-form run label *)
  total_cycles : int;
      (** speculative-level cycles summed across the five workloads *)
  wall_seconds : float;  (** harness wall clock for the measured section *)
  total_alloc_bytes : int;  (** bytes allocated compiling all workloads *)
  per_program_cycles : (string * int) list;
}

val append : path:string -> entry -> unit
(** Append one record (creates the file if needed). *)

val load : path:string -> entry list * string list
(** All well-formed records in file order, plus a description of each
    malformed line skipped (a truncated append must not poison the
    whole trajectory). A missing file is an empty history. *)

type drift = {
  metric : string;
  mean : float;  (** over the prior window *)
  latest : float;
  change : float;  (** [latest/mean - 1] *)
}

val pp_drift : drift Fmt.t

val trend :
  ?window:int ->
  ?cycle_tolerance:float ->
  ?alloc_tolerance:float ->
  ?wall_tolerance:float ->
  entry list ->
  drift list
(** Compare the newest entry against the mean of up to [window]
    (default 5) prior entries. Flags only upward drift: cycles beyond
    [cycle_tolerance] (default 2%), allocation beyond [alloc_tolerance]
    (default 10%), wall clock beyond [wall_tolerance] (default 50%).
    Fewer than two entries → no findings. *)
