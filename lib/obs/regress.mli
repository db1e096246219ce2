(** Benchmark regression gate: diff two JSON reports on cycle and
    allocation metrics.

    Walks a baseline and a current report in lockstep and compares
    every numeric field that measures cycles — a field named [cycles]
    or [cycles_per_iteration], one whose name ends in [_cycles], or any
    numeric leaf directly under such a field (the A2/A3 tables nest
    per-program counts under a ["cycles"] object) — or allocation — a
    field named [alloc_bytes]/[allocated_bytes] or ending in [_bytes].

    A cycle comparison fails when the current value exceeds the
    baseline by more than the tolerance (default 2%); with a zero
    baseline the ratio is meaningless, so any growth at all fails and
    the message reports the absolute delta. An allocation comparison
    fails only when both the (looser, default 50%) ratio and an
    absolute noise floor (default 64 KiB) are exceeded — byte counts
    are deterministic for one binary but drift across compiler
    versions, and tiny phases must not gate on ratio alone. A NaN on
    either side is reported as invalid rather than silently passing
    (NaN compares false with everything). A metric-bearing subtree
    present in the baseline but absent from the current report also
    fails, so schema drift cannot silently shrink coverage. Timing
    fields are never cycle- or bytes-named, so they never gate. *)

type kind = Cycles | Alloc

val pp_kind : kind Fmt.t

type finding = {
  path : string;  (** JSON path, e.g. [E5_figure8_runtime[2].base_cycles] *)
  kind : kind;
  baseline : float;
  current : float;
}

val ratio : finding -> float
(** [current /. baseline]; [infinity] when the baseline is zero and the
    current value positive, [1.0] when both are zero, [nan] when either
    side is NaN. *)

type outcome = {
  compared : int;  (** metrics compared *)
  regressions : finding list;  (** beyond tolerance (see above) *)
  improvements : finding list;  (** current < baseline *)
  missing : string list;
      (** metric-bearing paths in the baseline with no counterpart (or
          a non-numeric counterpart) in the current report *)
  invalid : string list;  (** paths where either side is NaN *)
}

val check :
  ?tolerance:float ->
  ?alloc_tolerance:float ->
  ?alloc_floor_bytes:float ->
  baseline:Json.t ->
  current:Json.t ->
  unit ->
  outcome
(** [tolerance] (default [0.02]) is the fractional slack for cycle
    metrics; [alloc_tolerance] (default [0.5]) and [alloc_floor_bytes]
    (default [65536.]) bound allocation metrics — both the ratio and
    the absolute floor must be exceeded to fail. *)

val ok : outcome -> bool
(** No regressions, nothing missing, nothing invalid. Comparing a
    report against itself is always [ok]. *)

val pp : outcome Fmt.t
(** Summary line, then one line per regression (with the relative and
    absolute delta; absolute only when the baseline is zero), per
    missing path, per invalid path, and per improvement. *)
