(** Human-readable renderings of telemetry.

    {!pp_issue_diagram} prints the cycle-by-cycle issue trace of a
    simulation — which instruction issued on which unit each cycle, and
    for the cycles where nothing issued, the binding stall reason — the
    form in which the paper's Section 3 walks through Figure 2's 20-22
    cycle iteration. {!pp_summary} prints the aggregate breakdown:
    per-unit utilization and where the non-issue cycles went. *)

val pp_legend : Format.formatter -> unit -> unit
(** The stall-reason legend ([RAW]/[STQ]/[CALL]/[UNIT]/[IO+k]) printed
    once at the top of the issue diagram. *)

val pp_issue_diagram : Format.formatter -> Trace.summary -> unit
(** Requires a summary recorded with tracing on ([Trace.summary.events]
    non-empty); prints a notice otherwise. Starts with {!pp_legend};
    stalled lines carry compact codes rather than full descriptions. *)

val pp_pipeline : ?max_cycles:int -> Format.formatter -> Trace.summary -> unit
(** ASCII pipeline occupancy: one row per functional unit, one column
    per cycle; ['#'] an issue, a digit multi-issue, ['='] an earlier
    instruction still executing, ['.'] idle. Windows to the first
    [max_cycles] (default 120) columns. *)

val pp_summary : Format.formatter -> Trace.summary -> unit
