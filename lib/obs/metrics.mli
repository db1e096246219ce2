(** Process-wide metrics registry.

    Counters, gauges and log2 histograms in one flat namespace, safe to
    bump from any domain (atomics; the registry table itself is behind a
    mutex). The scheduler, driver pool, register allocator and simulator
    register into it; [gisc --stats] and [bench --json] dump it as a
    ["metrics"] section.

    Collection is disabled until {!enable} — a disabled recording is one
    atomic load and a branch, so schedules and timings are unaffected
    when observability is off. Registration itself is always allowed
    (handles are cheap and idempotent: the same name returns the same
    metric). *)

type counter
type gauge
type histogram

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

val counter : string -> counter
(** Get or register. Raises [Invalid_argument] if the name is already
    registered as a different metric type. *)

val gauge : string -> gauge
val histogram : string -> histogram

val incr : ?by:int -> counter -> unit
val set : gauge -> float -> unit

val observe : histogram -> float -> unit
(** Bucket [i] counts observations in [2^(i-1), 2^i) (bucket 0 holds
    everything below 1.0); count and sum are kept exactly. *)

type histogram_view = { count : int; sum : float; buckets : (int * int) list }
(** [buckets] holds only the non-empty log2 buckets, as
    [(bucket index, count)] in ascending index order. *)

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of histogram_view

val snapshot : unit -> (string * value) list
(** Every registered metric read in one pass under the registry lock,
    sorted by name — the one way to read multiple metrics without a
    concurrent registration or {!reset} interleaving between reads.
    Reports (including the profiler's) are built from this. *)

val histogram_stats : histogram -> histogram_view
(** Current count, sum, and non-empty buckets of one histogram. *)

val pp_histogram_view : histogram_view Fmt.t
(** ["count N, mean M, log2 buckets [i:c ...]"] — the driver pool
    summary's rendering. *)

val to_json : ?deterministic:bool -> unit -> Json.t
(** Every registered metric, sorted by name. With [deterministic], any
    metric whose name ends in ["_seconds"], ["_ns"], ["_us"] or
    ["_bytes"] is zeroed — the registry's equivalent of [Prof.scrub]
    (allocation counts are deterministic per binary but vary across
    compiler versions, so they scrub too). *)

val reset : unit -> unit
(** Zero every registered metric (the registry keeps its names). Used
    by tests and by the bench harness between table groups. *)

val find_counter : string -> int option
(** Current value of a registered counter, for tests. *)
