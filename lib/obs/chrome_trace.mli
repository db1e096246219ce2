(** Chrome trace-event export of a simulator issue trace.

    Converts a {!Trace.summary} recorded with tracing on into the
    trace-event JSON format understood by [chrome://tracing] and
    Perfetto: one thread (track) per functional unit, each dynamic
    instruction a complete ["X"] slice spanning issue to completion
    (one cycle = one microsecond of trace time), and each attributed
    stall an instant ["i"] event at the start of its gap. The top-level
    object carries [displayTimeUnit] and a ["traceEvents"] array, per
    the schema. *)

val to_json :
  ?process_name:string ->
  ?profile:Prof.node ->
  ?slack:(int -> int option) ->
  Trace.summary ->
  Json.t
(** With [profile], the self-profiler's tree rides along as a second
    trace process: one slice track of pipeline phases/regions plus
    ["allocated_bytes"] and ["gc_collections"] counter tracks sampled
    at every phase boundary (one profile nanosecond = one trace
    microsecond).

    With [slack] (instruction uid → schedule slack, [None] for unknown
    uids), every slice is coloured by how pinned its instruction is to
    the critical path — zero slack renders ["terrible"] (red), 1–2
    ["bad"], the rest ["good"] — each slice's args gain
    [slack_cycles], and a ["schedule_slack"] counter track follows the
    issuing instruction's slack across the timeline.

    Without either option, the output is exactly the simulator-only
    trace. *)

val to_string :
  ?process_name:string ->
  ?profile:Prof.node ->
  ?slack:(int -> int option) ->
  Trace.summary ->
  string

val profile_to_string : Prof.node -> string
